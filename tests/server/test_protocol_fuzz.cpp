// Fuzz-style hardening for the wire protocol: random garbage, truncated
// documents, pathological framing. The invariant everywhere is "structured
// ProtocolError or clean frame status, never a crash, hang or unbounded
// buffer" — the parser and LineReader face the network, so every byte
// sequence is a legal input.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "server/protocol.hpp"
#include "server_test_util.hpp"
#include "util/rng.hpp"

namespace memstress::server {
namespace {

/// A connected socketpair whose ends close on scope exit. LineReader uses
/// recv(), so tests feed it through a real socket, not a pipe.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  }
  ~SocketPair() {
    close_writer();
    if (fds[0] >= 0) ::close(fds[0]);
  }
  void close_writer() {
    if (fds[1] >= 0) ::close(fds[1]);
    fds[1] = -1;
  }
  int reader() const { return fds[0]; }
  int writer() const { return fds[1]; }
};

TEST(ProtocolFuzz, RandomBytesNeverCrashTheParser) {
  Rng rng(0xf00df00d);
  for (int round = 0; round < 500; ++round) {
    const std::size_t length = rng.below(64);
    std::string line;
    for (std::size_t i = 0; i < length; ++i)
      line.push_back(static_cast<char>(rng.below(256)));
    try {
      const Request request = parse_request(line);
      // Random bytes that happen to parse must still satisfy the envelope.
      EXPECT_FALSE(request.type.empty());
    } catch (const ProtocolError&) {
      // The expected outcome for almost every round.
    }
  }
}

TEST(ProtocolFuzz, EveryPrefixOfAValidRequestIsHandled) {
  const std::string full =
      "{\"v\":1,\"id\":3,\"type\":\"coverage\",\"params\":"
      "{\"geometry\":{\"x_rows\":128},\"vlv_period\":1e-07}}";
  EXPECT_NO_THROW(parse_request(full));
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::string prefix = full.substr(0, cut);
    EXPECT_THROW(parse_request(prefix), ProtocolError) << "cut=" << cut;
  }
}

TEST(ProtocolFuzz, DeepNestingDoesNotOverflowTheStack) {
  std::string deep;
  for (int i = 0; i < 2000; ++i) deep += "[";
  try {
    Json::parse(deep);
    FAIL() << "unterminated arrays must not parse";
  } catch (const ProtocolError&) {
    // Either a depth limit or an unterminated-document error is fine; what
    // matters is that we got here instead of a segfault.
  }
}

TEST(ProtocolFuzz, InvalidUtf8VariantsAllRejected) {
  const std::vector<std::string> bad = {
      "\"\xed\xa0\x80\"",       // UTF-8 encoded surrogate half
      "\"\xf4\x90\x80\x80\"",   // beyond U+10FFFF
      "\"\xe2\x82\"",           // truncated 3-byte sequence
      "\"\x80\"",               // bare continuation byte
      "\"\xf8\x88\x80\x80\x80\"",  // 5-byte form (never valid)
  };
  for (const std::string& text : bad)
    EXPECT_THROW(Json::parse(text), ProtocolError) << text;
}

TEST(ProtocolFuzz, LineReaderReassemblesInterleavedPartialWrites) {
  SocketPair sockets;
  const std::string first = "{\"v\":1,\"type\":\"health\"}";
  const std::string second = "{\"v\":1,\"type\":\"metrics\"}";
  std::thread writer([&] {
    const std::string stream = first + "\n" + second + "\n";
    // Dribble the two frames across byte-sized writes landing mid-token.
    for (const char byte : stream) {
      ASSERT_EQ(::send(sockets.writer(), &byte, 1, 0), 1);
    }
    sockets.close_writer();
  });
  LineReader reader(sockets.reader());
  Frame frame = reader.read_line();
  ASSERT_EQ(frame.status, Frame::Status::Line);
  EXPECT_EQ(frame.text, first);
  frame = reader.read_line();
  ASSERT_EQ(frame.status, Frame::Status::Line);
  EXPECT_EQ(frame.text, second);
  EXPECT_EQ(reader.read_line().status, Frame::Status::Eof);
  writer.join();
}

TEST(ProtocolFuzz, LineReaderReportsTruncatedFinalFrame) {
  SocketPair sockets;
  write_all(sockets.writer(), "{\"v\":1,\"type\":\"health\"}\n{\"v\":1,\"ty");
  sockets.close_writer();
  LineReader reader(sockets.reader());
  EXPECT_EQ(reader.read_line().status, Frame::Status::Line);
  const Frame tail = reader.read_line();
  EXPECT_EQ(tail.status, Frame::Status::Eof);
  EXPECT_EQ(tail.text, "{\"v\":1,\"ty");  // truncated frame surfaces to caller
}

TEST(ProtocolFuzz, LineReaderBoundsOversizedFrames) {
  SocketPair sockets;
  const std::size_t limit = 256;
  std::thread writer([&] {
    // 4x the limit without a newline: the reader must give up long before
    // the writer finishes, never buffering the whole line.
    const std::string blob(1024, 'x');
    ::send(sockets.writer(), blob.data(), blob.size(), MSG_NOSIGNAL);
    sockets.close_writer();
  });
  LineReader reader(sockets.reader(), limit);
  EXPECT_EQ(reader.read_line().status, Frame::Status::Overflow);
  writer.join();
}

TEST(ProtocolFuzz, ResponseParserRejectsStructuralLies) {
  EXPECT_THROW(parse_response("{\"v\":1,\"id\":1}"), ProtocolError);
  EXPECT_THROW(parse_response("{\"v\":1,\"id\":1,\"ok\":true}"),
               ProtocolError);
  EXPECT_THROW(parse_response("{\"v\":1,\"id\":1,\"ok\":false}"),
               ProtocolError);
  EXPECT_THROW(
      parse_response("{\"v\":1,\"id\":1,\"ok\":false,\"error\":\"nope\"}"),
      ProtocolError);
  EXPECT_THROW(parse_response("null"), ProtocolError);
}

}  // namespace
}  // namespace memstress::server
