#include "alloc/registry.hpp"

#include <cctype>
#include <stdexcept>

#include "alloc/contiguous.hpp"
#include "alloc/gabl.hpp"
#include "alloc/mbs.hpp"
#include "alloc/paging.hpp"
#include "alloc/random_alloc.hpp"
#include "util/strings.hpp"

namespace procsim::alloc {
namespace {

using util::iequals;

/// Parses "Paging" (index 0) or "Paging(k)"; nullopt if not a Paging name.
[[nodiscard]] std::optional<std::int32_t> parse_paging(std::string_view name) {
  constexpr std::string_view kPrefix = "Paging";
  if (name.size() < kPrefix.size() ||
      !iequals(name.substr(0, kPrefix.size()), kPrefix))
    return std::nullopt;
  std::string_view rest = name.substr(kPrefix.size());
  if (rest.empty()) return 0;
  if (rest.size() < 3 || rest.front() != '(' || rest.back() != ')')
    return std::nullopt;
  rest = rest.substr(1, rest.size() - 2);
  std::int32_t k = 0;
  for (const char c : rest) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    k = k * 10 + (c - '0');
    // Same bound PageTable::checked_page_side enforces, so a name that
    // parses here can never blow up later at construction time.
    if (k > 15) return std::nullopt;
  }
  return k;
}

}  // namespace

std::optional<ParsedAllocatorName> parse_allocator_name(std::string_view name) {
  if (iequals(name, "GABL"))
    return ParsedAllocatorName{Family::kGabl, "GABL", 0};
  if (iequals(name, "MBS")) return ParsedAllocatorName{Family::kMbs, "MBS", 0};
  if (iequals(name, "FirstFit"))
    return ParsedAllocatorName{Family::kFirstFit, "FirstFit", 0};
  if (iequals(name, "BestFit"))
    return ParsedAllocatorName{Family::kBestFit, "BestFit", 0};
  if (iequals(name, "Random"))
    return ParsedAllocatorName{Family::kRandom, "Random", 0};
  if (const auto k = parse_paging(name))
    return ParsedAllocatorName{Family::kPaging, "Paging(" + std::to_string(*k) + ")",
                               *k};
  return std::nullopt;
}

std::vector<std::string> known_allocators() {
  return {"GABL", "Paging(0)", "MBS", "FirstFit", "BestFit", "Random"};
}

std::unique_ptr<Allocator> make_allocator(const std::string& name,
                                          mesh::Geometry geom,
                                          const AllocatorParams& params) {
  const auto parsed = parse_allocator_name(name);
  if (!parsed)
    throw std::invalid_argument("make_allocator: unknown allocator '" + name +
                                "' (known: " + util::join(known_allocators()) + ")");
  switch (parsed->family) {
    case Family::kGabl:
      return std::make_unique<GablAllocator>(geom);
    case Family::kPaging:
      return std::make_unique<PagingAllocator>(geom, parsed->paging_size_index,
                                               params.paging_indexing);
    case Family::kMbs:
      return std::make_unique<MbsAllocator>(geom);
    case Family::kFirstFit:
      return std::make_unique<ContiguousAllocator>(geom, ContiguousPolicy::kFirstFit);
    case Family::kBestFit:
      return std::make_unique<ContiguousAllocator>(geom, ContiguousPolicy::kBestFit);
    case Family::kRandom:
      // Keep the historical seed derivation so fixed-seed experiment output
      // is unchanged by the registry refactor.
      return std::make_unique<RandomAllocator>(geom, params.seed ^ 0xA110CA7EULL);
  }
  throw std::logic_error("make_allocator: unhandled family");
}

}  // namespace procsim::alloc
