/**
 * @file
 * Paged per-line state table: the shadow store for 64-byte-line models.
 *
 * The PCIe model and the checkers keep state per cache line: the host
 * write-through line cache, the coherence checker's shadow lines, the
 * happens-before detector's epochs. Every modelled access touches one
 * to three of these tables, so a hash probe or a tree walk per lookup
 * adds up. LineTable indexes lines directly: a fixed page of kPageLines
 * elements is allocated on the first touch of any of its lines, and a
 * lookup is two loads — the page pointer at `line / kPageLines`, then
 * the element at `line % kPageLines`.
 *
 * Pages never move once allocated, so element references stay valid
 * until Clear(). Only the page directory (one pointer per page) grows
 * by reallocation; the per-line state itself never does, which keeps
 * a table that spans a large, sparsely touched address range from
 * reallocating one big contiguous block on growth.
 *
 * Elements on an allocated page that were never touched hold a
 * value-initialized T; callers whose "absent" differs from a default T
 * keep their own presence flag in T.
 */
// wave-domain: neutral
// wave-hot
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

namespace wave::sim {

/** Line-indexed table of T, allocated in fixed pages on first touch. */
template <typename T>
class LineTable {
  public:
    static constexpr std::size_t kPageLines = 64;

    /** The state of @p line, or nullptr when its page was never touched. */
    T*
    Find(std::size_t line)
    {
        const std::size_t page = line / kPageLines;
        if (page >= pages_.size() || pages_[page] == nullptr) return nullptr;
        return &(*pages_[page])[line % kPageLines];
    }

    /** The state of @p line, allocating its page on first touch. */
    T&
    At(std::size_t line)
    {
        const std::size_t page = line / kPageLines;
        if (page >= pages_.size()) pages_.resize(page + 1);
        if (pages_[page] == nullptr) {
            // wave-analyze: allow(W101 a page is allocated once, on the first touch of any of its lines; later accesses reuse it)
            pages_[page] = std::make_unique<Page>();
        }
        return (*pages_[page])[line % kPageLines];
    }

    /** Drops every page; all lines read as untouched again. */
    void Clear() { pages_.clear(); }

  private:
    using Page = std::array<T, kPageLines>;

    std::vector<std::unique_ptr<Page>> pages_;
};

}  // namespace wave::sim
