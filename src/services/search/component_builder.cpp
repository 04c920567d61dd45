#include "services/search/component_builder.h"

#include <exception>
#include <memory>
#include <utility>

namespace at::search {

ComponentBuilder::ComponentBuilder(common::ShardedExecutor& exec,
                                   synopsis::BuildConfig config)
    : exec_(exec), config_(std::move(config)) {}

ComponentBuilder::~ComponentBuilder() {
  for (auto& b : builds_)
    if (b.valid()) b.wait();
}

void ComponentBuilder::add(synopsis::SparseRows shard) {
  const std::uint64_t base = next_doc_id_;
  next_doc_id_ += shard.rows();
  // The task owns copies of everything it reads, so it never touches the
  // builder. Should submit throw, the dropped task leaves its future ready
  // (a broken promise), and the destructor does not wait on it forever.
  auto build = std::make_shared<std::packaged_task<SearchComponent()>>(
      [shard = std::move(shard), base, config = config_]() mutable {
        return SearchComponent(std::move(shard), base, config);
      });
  builds_.push_back(build->get_future());
  exec_.submit(exec_.home_group(builds_.size() - 1), [build] { (*build)(); });
}

std::vector<SearchComponent> ComponentBuilder::finish() {
  std::vector<SearchComponent> comps;
  comps.reserve(builds_.size());
  std::exception_ptr first;
  for (auto& b : builds_) {
    try {
      comps.push_back(b.get());
    } catch (...) {
      if (first == nullptr) first = std::current_exception();
    }
  }
  builds_.clear();
  if (first != nullptr) std::rethrow_exception(first);
  return comps;
}

}  // namespace at::search
