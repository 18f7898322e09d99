/**
 * @file
 * Per-region shadow-line tables shared by the coherence and HB checkers.
 *
 * Both checkers key their shadow state by (region, 64-byte line). A run
 * has a handful of regions (the NIC DRAM window, DMA targets, queue
 * objects) and long runs of accesses to one region, so each region gets
 * its own sim::LineTable, found through a short list with a last-region
 * cache: the common lookup is one pointer compare plus the table's two
 * loads, with no hash.
 *
 * A line nobody touched reads as a default T; the checkers' rules fire
 * only on state an access set, so a default line reports nothing.
 */
// wave-domain: neutral
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "sim/line_table.h"

namespace wave::check {

/** One sim::LineTable<T> per opaque region tag. */
template <typename T>
class RegionLines {
  public:
    /** @p region's line table, created empty on first use. */
    sim::LineTable<T>&
    Of(const void* region)
    {
        if (last_table_ != nullptr && region == last_region_) {
            return *last_table_;
        }
        std::size_t i = 0;
        while (i < regions_.size() && regions_[i] != region) ++i;
        if (i == regions_.size()) {
            regions_.push_back(region);
            tables_.push_back(std::make_unique<sim::LineTable<T>>());
        }
        last_region_ = region;
        last_table_ = tables_[i].get();
        return *last_table_;
    }

    /** The state of @p line in @p region, or nullptr if never touched. */
    T* Find(const void* region, std::size_t line)
    {
        return Of(region).Find(line);
    }

    /** The state of @p line in @p region, created on first touch. */
    T& At(const void* region, std::size_t line)
    {
        return Of(region).At(line);
    }

    /** Drops every region and its lines, and the last-region cache. */
    void
    Clear()
    {
        regions_.clear();
        tables_.clear();
        last_region_ = nullptr;
        last_table_ = nullptr;
    }

  private:
    std::vector<const void*> regions_;  ///< scanned on a cache miss
    std::vector<std::unique_ptr<sim::LineTable<T>>> tables_;
    const void* last_region_ = nullptr;
    sim::LineTable<T>* last_table_ = nullptr;
};

}  // namespace wave::check
