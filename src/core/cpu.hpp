// The processor-facing access API. Application kernels issue
// `co_await cpu.read(addr)` / `cpu.write(addr)` / `cpu.compute(n)`; the Cpu
// walks the memory hierarchy and charges simulated time.
#pragma once

#include "src/common/config.hpp"
#include "src/common/types.hpp"
#include "src/core/address_space.hpp"
#include "src/core/node.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/task.hpp"

namespace netcache::verify {
class CoherenceOracle;
}

namespace netcache::core {

class Machine;

class Cpu {
 public:
  Cpu(Machine& machine, Node& node);

  NodeId id() const { return node_->id(); }
  Node& node() { return *node_; }
  Machine& machine() { return *machine_; }
  sim::Engine& engine() { return *engine_; }
  Cycles now() const { return engine_->now(); }

  /// A data load of up to one word-aligned element. Completes when the
  /// processor unstalls (L1 hit: 1 pcycle; deeper levels per Tables 1-2).
  sim::Task<void> read(Addr addr);

  /// A data store: 1 pcycle into the coalescing write buffer, stalling only
  /// when the buffer is full (paper Section 4.1).
  sim::Task<void> write(Addr addr, int bytes = kWordBytes);

  /// Models `cycles` of non-memory work (ALU/FPU instructions).
  sim::Task<void> compute(Cycles cycles);

 private:
  /// Background next-block prefetch (sequential_prefetch extension).
  sim::Task<void> prefetch(Addr block_base);

  Machine* machine_;
  Node* node_;
  sim::Engine* engine_;
  const MachineConfig* config_;
  const LatencyParams* lat_;
  AddressSpace* as_;
  verify::CoherenceOracle* oracle_;  // null unless the run is verified
};

}  // namespace netcache::core
