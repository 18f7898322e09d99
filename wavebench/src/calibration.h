/**
 * @file
 * The two machine-speed probes the benchmark times next to its ops.
 */
#pragma once

#include <cstdint>

namespace wave::wavebench {

/**
 * Host ns per event of the bare event core (sim.core_ns_per_event), from
 * one pass of 256K events: 64 independent chains on a fresh
 * sim::Simulator, each event rescheduling itself at a pseudo-random
 * delay in [1, 4096) ns so the timing wheel sees a spread of slots.
 * About 20 ms.
 */
double CoreNsPerEventPass();

/**
 * Host ns of one pass of a fixed reference loop that shares no code
 * with the simulator: 20K steps of a small event loop of its own (64-byte
 * events in a binary heap, function-pointer dispatch, one pseudo-random
 * read and write of a 16 MiB table per event). Timed between the slices
 * of an op, it samples how fast the machine runs while the op runs, so
 * op time over reference time cancels contention from other tenants,
 * while a speedup anywhere in the program, the event core included,
 * still shows. About 5 ms.
 */
std::int64_t ReferencePassNs();

}  // namespace wave::wavebench
