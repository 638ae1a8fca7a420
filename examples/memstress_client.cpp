// memstress_client: one-shot CLI for a running memstressd.
//
//   memstress_client [--addr A] [--port N] [--timeout-ms T] <type> [params]
//
//   type    coverage | dpm | schedule | detectability | metrics | health
//           | batch
//   params  JSON object, e.g. '{"geometry":{"x_rows":1024}}'
//
// For `batch`, params may be a JSON *array* of sub-requests; it is wrapped
// into the {"requests":[...]} shape the daemon expects, so a bulk sweep is
// one line:
//
//   MEMSTRESS_PORT=7733 ./build/examples/memstress_client batch
//       '[{"type":"dpm","params":{"yield":0.95,"defect_coverage":0.99}},
//         {"type":"health"}]'                 (params on the same line)
//
// Prints the result document (one line of JSON) on success; on an error
// response prints the structured code/message and exits nonzero. The
// address/port default to MEMSTRESS_ADDR / MEMSTRESS_PORT, so a client on
// the same box as the daemon usually needs no flags:
//
//   MEMSTRESS_PORT=7733 ./build/examples/memstressd &
//   MEMSTRESS_PORT=7733 ./build/examples/memstress_client health
//   MEMSTRESS_PORT=7733 ./build/examples/memstress_client dpm
//       '{"yield":0.95,"defect_coverage":0.99}'   (params on the same line)
#include <cstdio>
#include <cstring>
#include <string>

#include "server/client.hpp"
#include "util/env.hpp"

using namespace memstress;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: memstress_client [--addr A] [--port N] "
               "[--timeout-ms T] <type> [json-params]\n"
               "types: coverage dpm schedule detectability metrics health "
               "batch\n"
               "       (batch accepts a JSON array of sub-requests as "
               "params)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  server::ClientConfig config;
  config.address = env_string_or("MEMSTRESS_ADDR", config.address);
  config.port =
      static_cast<int>(env_int_or("MEMSTRESS_PORT", 0, 65535, config.port));

  std::string type;
  std::string params_text = "{}";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--addr" && i + 1 < argc) {
      config.address = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      config.port = std::atoi(argv[++i]);
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      config.timeout_ms = std::atoi(argv[++i]);
    } else if (type.empty()) {
      type = arg;
    } else {
      params_text = arg;
    }
  }
  if (type.empty()) return usage();
  if (config.port <= 0) {
    std::fprintf(stderr,
                 "memstress_client: no port (set MEMSTRESS_PORT or --port)\n");
    return 2;
  }

  try {
    server::Json params = server::Json::parse(params_text);
    if (type == "batch" && params.is_array()) {
      // Convenience: a bare array of sub-requests becomes the "requests"
      // field, matching Client::batch()'s wire shape.
      server::Json wrapped = server::Json::object();
      wrapped.set("requests", std::move(params));
      params = std::move(wrapped);
    }
    server::Client client(config);
    const server::Json result = client.request(type, params);
    std::printf("%s\n", result.dump().c_str());
    return 0;
  } catch (const server::ServerError& e) {
    std::fprintf(stderr, "memstress_client: server error %s\n", e.what());
    return 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "memstress_client: %s\n", e.what());
    return 1;
  }
}
