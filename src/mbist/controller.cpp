#include "mbist/controller.hpp"

#include "util/bits.hpp"
#include "util/error.hpp"

namespace memstress::mbist {

Controller::Controller(Program program, MemoryPort& port, ControllerConfig config)
    : program_(std::move(program)), port_(port), config_(config) {
  require(!program_.instructions.empty(), "Controller: empty program");
  fifo_.reserve(config_.fail_fifo_depth);
}

void Controller::start_element(const march::MarchElement& element) {
  element_ = &element;
  address_index_ = 0;
  op_index_ = 0;
}

std::pair<int, int> Controller::current_address() const {
  const long total = static_cast<long>(port_.rows()) * port_.cols();
  long linear = element_->order == march::AddressOrder::Descending
                    ? total - 1 - address_index_
                    : address_index_;
  if (rotation_ != 0) {
    const int bits = ceil_log2(total);
    require((1L << bits) == total,
            "Controller: rotation requires a power-of-two cell count");
    const int r = rotation_ % bits;
    const long mask = (1L << bits) - 1;
    linear = ((linear << r) | (linear >> (bits - r))) & mask;
  }
  return {static_cast<int>(linear / port_.cols()),
          static_cast<int>(linear % port_.cols())};
}

bool Controller::background_value(int row, int col, bool logical) const {
  const bool invert = checkerboard_ && ((row + col) & 1) != 0;
  return logical != invert;
}

bool Controller::step() {
  if (done_) return false;
  ++cycle_;

  // A pause holds the engine for its programmed cycle count. The idle time
  // is delivered to the memory as one contiguous stretch (that is what the
  // cell sees physically); the cycle counter accounts for every clock.
  if (pause_remaining_ > 0) {
    port_.idle(pause_remaining_ * config_.clock_period);
    cycle_ += pause_remaining_ - 1;
    pause_remaining_ = 0;
    return !done_;
  }

  // Mid-element: execute one memory operation.
  if (element_ != nullptr) {
    const auto [row, col] = current_address();
    const march::MarchOp& op = element_->ops[op_index_];
    const bool value = background_value(row, col, op.value);
    if (op.is_read) {
      const bool observed = port_.read(row, col);
      if (observed != value) {
        ++fail_count_;
        if (fifo_.size() < config_.fail_fifo_depth) {
          fifo_.push_back({cycle_, row, col, value, observed});
        } else {
          fifo_overflow_ = true;
        }
        if (config_.stop_on_first_fail) {
          done_ = true;
          return false;
        }
      }
    } else {
      port_.write(row, col, value);
    }
    // Advance op / address; element retires when the last address is done.
    if (++op_index_ >= element_->ops.size()) {
      op_index_ = 0;
      const long total = static_cast<long>(port_.rows()) * port_.cols();
      if (++address_index_ >= total) element_ = nullptr;
    }
    return true;
  }

  // Fetch the next instruction.
  require(pc_ < program_.instructions.size(),
          "Controller: program ran off the end (missing STOP)");
  const Instruction instruction = program_.instructions[pc_++];
  switch (instruction.opcode) {
    case Opcode::SetBackground:
      checkerboard_ = instruction.operand != 0;
      break;
    case Opcode::SetRotation:
      rotation_ = static_cast<int>(instruction.operand);
      break;
    case Opcode::Element:
      require(instruction.operand < program_.elements.size(),
              "Controller: element index out of range");
      start_element(program_.elements[instruction.operand]);
      break;
    case Opcode::Pause:
      pause_remaining_ = instruction.operand;
      break;
    case Opcode::Stop:
      done_ = true;
      return false;
  }
  return true;
}

std::uint64_t Controller::run() {
  while (step()) {
  }
  return cycle_;
}

bool self_test(sram::BehavioralSram& memory, const Program& program,
               const ControllerConfig& config) {
  BehavioralPort port(memory);
  Controller controller(program, port, config);
  controller.run();
  return !controller.failed();
}

}  // namespace memstress::mbist
