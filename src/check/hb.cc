// wave-domain: neutral
#include "check/hb.h"

#include <algorithm>
#include <cstdio>

#include "check/fnv.h"
#include "sim/logging.h"
#include "sim/simulator.h"

namespace wave::check {

const char*
RaceKindName(RaceKind kind)
{
    switch (kind) {
        case RaceKind::kTieBreak: return "tie-break-race";
        case RaceKind::kVirtualTime: return "virtual-time-race";
    }
    return "?";
}

std::string
HbRace::Describe() const
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "%s on line %zu: %s %s by %s [%zu,+%zu)@%llu ns is unordered "
        "with %s %s by %s [%zu,+%zu)@%llu ns",
        RaceKindName(kind), line, second.is_write ? "write" : "read",
        second.label, second.actor, second.offset, second.size,
        static_cast<unsigned long long>(second.when.ns()),
        first.is_write ? "write" : "read", first.label, first.actor,
        first.offset, first.size,
        static_cast<unsigned long long>(first.when.ns()));
    return buf;
}

sim::ActorId
HbRaceDetector::RegisterActor(const char* label)
{
    const sim::ActorId id = actors_.Register(label);
    clocks_.emplace_back();
    return id;
}

HbRaceDetector::VectorClock&
HbRaceDetector::ClockOf(sim::ActorId actor)
{
    WAVE_ASSERT(actor != sim::kNoActor && actor <= clocks_.size(),
                "access stamped with an unregistered actor id %u", actor);
    VectorClock& vc = clocks_[actor - 1];
    if (vc.size() < clocks_.size()) vc.resize(clocks_.size(), 0);
    // An actor's own clock starts at 1: other actors' views start at 0,
    // so a first-epoch access (clock 1) is NOT ordered-before an actor
    // that never synchronized with it. At 0/0 the `>=` test would call
    // every initial access ordered and miss first-access races.
    if (vc[actor - 1] == 0) vc[actor - 1] = 1;
    return vc;
}

bool
HbRaceDetector::OrderedBefore(const Epoch& epoch, sim::ActorId actor)
{
    if (epoch.actor == actor) return true;  // program order
    const VectorClock& vc = ClockOf(actor);
    const std::size_t index = epoch.actor - 1;
    return index < vc.size() && vc[index] >= epoch.clock;
}

void
HbRaceDetector::OnAccess(sim::ActorId actor, const void* region,
                         std::size_t offset, std::size_t n, bool is_write,
                         const char* site)
{
    if (is_write) {
        stats_.writes += 1;
    } else {
        stats_.reads += 1;
    }
    if (n == 0) return;
    VectorClock& vc = ClockOf(actor);
    const std::uint64_t clock = vc[actor - 1];
    const std::size_t first = LineOf(offset);
    const std::size_t last = LineOf(offset + n - 1);
    sim::LineTable<LineState>& table = lines_.Of(region);
    for (std::size_t line = first; line <= last; ++line) {
        LineState& state = table.At(line);
        const Epoch current{actor, clock, site, offset, n, sim_.Now()};
        if (state.allow_unordered) {
            stats_.allowed_unordered += 1;
        } else {
            if (state.last_write.actor != sim::kNoActor &&
                !OrderedBefore(state.last_write, actor)) {
                Report(line, state.last_write, /*prev_is_write=*/true,
                       current, is_write);
            }
            if (is_write) {
                for (const Epoch& read : state.reads) {
                    if (!OrderedBefore(read, actor)) {
                        Report(line, read, /*prev_is_write=*/false,
                               current, is_write);
                    }
                }
            }
        }
        if (is_write) {
            state.last_write = current;
            state.reads.clear();
        } else {
            auto it = std::find_if(
                state.reads.begin(), state.reads.end(),
                [actor](const Epoch& e) { return e.actor == actor; });
            if (it != state.reads.end()) {
                *it = current;
            } else {
                state.reads.push_back(current);
            }
        }
    }
}

void
HbRaceDetector::OnRelease(sim::ActorId actor, const void* obj,
                          std::uint64_t tag)
{
    stats_.releases += 1;
    VectorClock& vc = ClockOf(actor);
    VectorClock& sync = SyncVar(SyncKey{obj, tag});
    if (sync.size() < vc.size()) sync.resize(vc.size(), 0);
    for (std::size_t i = 0; i < vc.size(); ++i) {
        sync[i] = std::max(sync[i], vc[i]);
    }
    // Advance the actor's own clock so work after the release is not
    // ordered before acquirers of this (now-frozen) sync state.
    vc[actor - 1] += 1;
}

void
HbRaceDetector::OnAcquire(sim::ActorId actor, const void* obj,
                          std::uint64_t tag)
{
    stats_.acquires += 1;
    auto it = sync_.find(SyncKey{obj, tag});
    if (it == sync_.end()) return;  // nothing released yet
    Join(actor, it->second);
}

void
HbRaceDetector::OnConsume(sim::ActorId actor, const void* obj,
                          std::uint64_t tag)
{
    stats_.acquires += 1;
    auto it = sync_.find(SyncKey{obj, tag});
    if (it == sync_.end()) return;  // nothing released yet
    Join(actor, it->second);
    SyncMap::node_type node = sync_.extract(it);
    std::fill(node.mapped().begin(), node.mapped().end(), 0);
    spare_sync_.push_back(std::move(node));
}

HbRaceDetector::VectorClock&
HbRaceDetector::SyncVar(const SyncKey& key)
{
    if (spare_sync_.empty()) return sync_[key];
    // Offer a retired (zeroed) node; insert hands it back when the key
    // is already live, so either way this is one lookup.
    SyncMap::node_type& spare = spare_sync_.back();
    spare.key() = key;
    auto result = sync_.insert(std::move(spare));
    if (result.inserted) {
        spare_sync_.pop_back();
    } else {
        spare = std::move(result.node);
    }
    return result.position->second;
}

void
HbRaceDetector::Join(sim::ActorId actor, const VectorClock& sync)
{
    VectorClock& vc = ClockOf(actor);
    if (vc.size() < sync.size()) vc.resize(sync.size(), 0);
    for (std::size_t i = 0; i < sync.size(); ++i) {
        vc[i] = std::max(vc[i], sync[i]);
    }
}

void
HbRaceDetector::AllowUnordered(const void* region, std::size_t offset,
                               std::size_t n)
{
    if (n == 0) return;
    const std::size_t first = LineOf(offset);
    const std::size_t last = LineOf(offset + n - 1);
    for (std::size_t line = first; line <= last; ++line) {
        lines_.At(region, line).allow_unordered = true;
    }
}

void
HbRaceDetector::Report(std::size_t line, const Epoch& prev,
                       bool prev_is_write, const Epoch& current,
                       bool current_is_write)
{
    // One report per unique (line, site pair, prior-access time): a
    // polling loop re-hitting one racy line produces one report.
    std::uint64_t key = kFnvOffsetBasis;
    key = FnvWord(key, line);
    key = FnvWord(key, reinterpret_cast<std::uintptr_t>(prev.site));
    key = FnvWord(key, reinterpret_cast<std::uintptr_t>(current.site));
    key = FnvWord(key, prev.when.ns());
    if (!reported_.insert(key).second) return;

    const RaceKind kind = prev.when == current.when
                              ? RaceKind::kTieBreak
                              : RaceKind::kVirtualTime;
    HbRace race;
    race.kind = kind;
    race.line = line;
    race.first = RaceAccess{prev.site, actors_.LabelOf(prev.actor),
                            prev_is_write, prev.offset, prev.size,
                            prev.when};
    race.second = RaceAccess{current.site, actors_.LabelOf(current.actor),
                             current_is_write, current.offset,
                             current.size, current.when};
    races_.push_back(race);
    const std::string what = races_.back().Describe();
    if (fail_fast_) {
        sim::Panic("virtual-time race: %s", what.c_str());
    }
    sim::Warn("virtual-time race: %s", what.c_str());
}

void
HbRaceDetector::Clear()
{
    for (VectorClock& vc : clocks_) {
        std::fill(vc.begin(), vc.end(), 0);
    }
    lines_.Clear();
    sync_.clear();
    races_.clear();
    reported_.clear();
    stats_ = HbStats{};
}

}  // namespace wave::check
