/**
 * @file
 * Virtual-time happens-before race detector over simulated actors.
 *
 * The discrete-event simulator is single-threaded and deterministic, so
 * a pair of conflicting accesses that no protocol edge orders will
 * still execute in *some* fixed order — decided by `ScheduleKeyed`
 * tie-breaks or event-insertion luck, not by the protocol. The PR-1
 * determinism auditor makes such schedules reproducible; it cannot say
 * they are bugs. This detector can: it runs a vector-clock analysis
 * (FastTrack-style epochs) over the modelled execution contexts — host
 * CPUs, SmartNIC cores, the DMA engine, MSI-X delivery — and reports
 * any conflicting same-line access pair with no happens-before path as
 * a race, even though the run produced a stable answer.
 *
 * Happens-before edges come from the protocol's sanctioned
 * synchronization actions, reported by the instrumented endpoints:
 * generation-flag publication and consumption on MMIO/shm queue slots,
 * lazy consumed-counter updates, MSI-X deliveries, and lock
 * acquire/release (`sim::Resource`). Accesses by the same actor are
 * ordered by program order. Flag polls and counter reads are modelled
 * as the synchronization operations they are, not as data accesses, so
 * the optimistic (`tolerate_stale`) protocol reads never produce
 * false positives.
 *
 * Races are classified by simulated time: accesses at the *same*
 * timestamp are ordered purely by the event queue's tie-break
 * (kTieBreak); accesses at different timestamps with no HB path are
 * ordered only by this run's timing luck (kVirtualTime).
 *
 * Intentionally unordered accesses (e.g. diagnostic snapshots) are
 * annotated with AllowUnordered(), the analogue of the coherence
 * checker's tolerate_stale.
 */
// wave-domain: neutral
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/region_lines.h"
#include "sim/actor.h"
#include "sim/time.h"

namespace wave::sim {
class Simulator;
}

namespace wave::check {

/** How the reported pair ended up ordered in this run. */
enum class RaceKind {
    /** Same timestamp: ordered only by the event-queue tie-break. */
    kTieBreak,
    /** Different timestamps, but no happens-before path: ordered only
        by this configuration's timing luck. */
    kVirtualTime,
};

const char* RaceKindName(RaceKind kind);

/** One side of a reported race. */
struct RaceAccess {
    const char* label = "?";  ///< e.g. "HostProducer::Send[payload]"
    const char* actor = "?";  ///< registered actor label
    bool is_write = false;
    std::size_t offset = 0;
    std::size_t size = 0;
    sim::TimeNs when{};
};

/** A conflicting access pair with no happens-before ordering. */
struct HbRace {
    RaceKind kind;
    std::size_t line;    ///< 64-byte line index within the region
    RaceAccess first;    ///< the earlier access (tie: the one on record)
    RaceAccess second;   ///< the later access that exposed the race

    /** One-line diagnostic, e.g. for test failure messages. */
    std::string Describe() const;
};

/** Aggregate instrumentation counters. */
struct HbStats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t releases = 0;
    std::uint64_t acquires = 0;
    std::uint64_t allowed_unordered = 0;  ///< accesses skipped by annotation
};

/**
 * The vector-clock race detector.
 *
 * Regions are opaque tags (the instrumented layer passes the address of
 * the shared object); lines are 64 bytes, matching the PCIe model.
 * Sync variables are keyed by (object address, tag), so one queue can
 * carry an independent sync var per slot and one for its counter.
 */
class HbRaceDetector {
  public:
    static constexpr std::size_t kLineSize = 64;

    explicit HbRaceDetector(const sim::Simulator& sim) : sim_(sim) {}

    HbRaceDetector(const HbRaceDetector&) = delete;
    HbRaceDetector& operator=(const HbRaceDetector&) = delete;

    /** Registers one execution context (label is a string literal). */
    sim::ActorId RegisterActor(const char* label);

    const sim::ActorRegistry& Actors() const { return actors_; }

    // --- Instrumentation entry points ---

    /** Actor @p actor accessed [offset, offset+n) of @p region. */
    void OnAccess(sim::ActorId actor, const void* region,
                  std::size_t offset, std::size_t n, bool is_write,
                  const char* site);

    /**
     * Release edge: actor @p actor published through sync var
     * (@p obj, @p tag) — e.g. a generation-flag write, a consumed-
     * counter update, a lock release, an MSI-X send.
     */
    void OnRelease(sim::ActorId actor, const void* obj, std::uint64_t tag);

    /**
     * Acquire edge: actor @p actor observed sync var (@p obj, @p tag)
     * — e.g. a matching generation-flag poll, a counter refresh, a
     * lock acquire, an MSI-X delivery.
     */
    void OnAcquire(sim::ActorId actor, const void* obj, std::uint64_t tag);

    /**
     * Consuming acquire: OnAcquire, then retires sync var (@p obj,
     * @p tag) and keeps its storage for the next OnRelease. For sync
     * vars with exactly one acquirer, such as a queue slot's generation
     * flag observed by its one consumer, so live sync state tracks the
     * in-flight slots rather than every slot ever released. Retiring
     * only removes HB edges: it can add race reports, never hide one.
     */
    void OnConsume(sim::ActorId actor, const void* obj, std::uint64_t tag);

    /**
     * Annotates [offset, offset+n) of @p region as intentionally
     * unordered: conflicting accesses there are counted, not reported.
     * Use for lines whose readers validate freshness another way.
     */
    void AllowUnordered(const void* region, std::size_t offset,
                        std::size_t n);

    // --- Results ---

    const std::vector<HbRace>& Races() const { return races_; }
    const HbStats& Stats() const { return stats_; }

    /** Sync vars released and not yet retired by OnConsume. */
    std::size_t LiveSyncVars() const { return sync_.size(); }

    /** When true, the first race panics instead of recording. */
    void SetFailFast(bool on) { fail_fast_ = on; }

    /** Drops all recorded races and shadow state (actors persist). */
    void Clear();

  private:
    using VectorClock = std::vector<std::uint64_t>;

    /** A FastTrack epoch: (actor, that actor's clock at the access). */
    struct Epoch {
        sim::ActorId actor = sim::kNoActor;
        std::uint64_t clock = 0;
        const char* site = "?";
        std::size_t offset = 0;
        std::size_t size = 0;
        sim::TimeNs when{};
    };

    /** Shadow state of one 64-byte line. */
    struct LineState {
        Epoch last_write;
        std::vector<Epoch> reads;  ///< one per actor since last write
        bool allow_unordered = false;
    };

    struct SyncKey {
        const void* obj;
        std::uint64_t tag;

        bool
        operator==(const SyncKey& other) const
        {
            return obj == other.obj && tag == other.tag;
        }
    };

    struct SyncKeyHash {
        std::size_t
        operator()(const SyncKey& key) const
        {
            return std::hash<const void*>()(key.obj) ^
                   (key.tag * 0x9e3779b97f4a7c15ULL);
        }
    };

    static std::size_t LineOf(std::size_t offset)
    {
        return offset / kLineSize;
    }

    VectorClock& ClockOf(sim::ActorId actor);

    /** The sync var for @p key, created zeroed if not live. */
    VectorClock& SyncVar(const SyncKey& key);

    /** Joins sync-var clock @p sync into @p actor's clock. */
    void Join(sim::ActorId actor, const VectorClock& sync);

    /** True when @p epoch happens-before @p actor's current view. */
    bool OrderedBefore(const Epoch& epoch, sim::ActorId actor);

    void Report(std::size_t line, const Epoch& prev, bool prev_is_write,
                const Epoch& current, bool current_is_write);

    using SyncMap = std::unordered_map<SyncKey, VectorClock, SyncKeyHash>;

    const sim::Simulator& sim_;
    sim::ActorRegistry actors_;
    std::vector<VectorClock> clocks_;  ///< indexed by actor id - 1
    RegionLines<LineState> lines_;  ///< shadow lines, paged per region
    SyncMap sync_;
    /** Retired sync-var nodes, reused (clock storage included) by
        OnRelease so steady-state slot traffic does not allocate. */
    std::vector<SyncMap::node_type> spare_sync_;
    std::vector<HbRace> races_;
    std::unordered_set<std::uint64_t> reported_;  ///< dedup keys
    HbStats stats_;
    bool fail_fast_ = false;
};

}  // namespace wave::check
