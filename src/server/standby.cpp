#include "server/standby.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/artifact.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "linalg/matrix.h"
#include "synopsis/delta.h"

namespace at::server {

namespace fs = std::filesystem;

const char* to_string(StandbyState s) {
  switch (s) {
    case StandbyState::kCreated: return "created";
    case StandbyState::kTailing: return "tailing";
    case StandbyState::kResyncRequired: return "resync_required";
    case StandbyState::kPromoted: return "promoted";
    case StandbyState::kStopped: return "stopped";
  }
  return "unknown";
}

StandbyReplica::StandbyReplica(StandbyConfig config)
    : config_(std::move(config)) {}

StandbyReplica::~StandbyReplica() { stop(); }

// ---------------------------------------------------------------------------
// Checkpoint load
// ---------------------------------------------------------------------------

void StandbyReplica::load() {
  common::MutexLock lock(mutex_);
  if (state_ != StandbyState::kCreated)
    throw std::runtime_error("standby: load() called twice");

  // Scan the checkpoint directory; versions live in the filenames.
  std::map<std::uint32_t, std::pair<std::uint64_t, std::string>> search_files;
  std::map<std::uint32_t, std::pair<std::uint64_t, std::string>> reco_files;
  std::string idf_path;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(config_.checkpoint_dir, ec)) {
    const std::string name = de.path().filename().string();
    if (name == "ckpt_idf.atac") {
      idf_path = de.path().string();
      continue;
    }
    char kind = 0;
    std::uint32_t comp = 0;
    std::uint64_t version = 0;
    if (!synopsis::parse_stream_filename(name, "ckpt", &kind, &comp,
                                         &version))
      continue;  // ".tmp" leftovers, foreign files
    auto& files = (kind == 'c') ? search_files : reco_files;
    // Several checkpoints may coexist; the newest version wins.
    auto [it, inserted] = files.emplace(comp, std::pair{version, de.path().string()});
    if (!inserted && version > it->second.first)
      it->second = {version, de.path().string()};
  }
  if (ec)
    throw common::ArtifactError("standby: cannot list checkpoint dir " +
                                config_.checkpoint_dir + ": " + ec.message());
  if (search_files.empty())
    throw common::ArtifactError("standby: no search checkpoint in " +
                                config_.checkpoint_dir);
  // Component ids must be contiguous 0..n-1 — a hole means a lost shard.
  const auto check_contiguous = [](const auto& files, const char* what) {
    std::uint32_t expect = 0;
    for (const auto& kv : files) {
      if (kv.first != expect++)
        throw common::ArtifactError(
            std::string("standby: non-contiguous ") + what +
            " checkpoint components (missing component " +
            std::to_string(expect - 1) + ")");
    }
  };
  check_contiguous(search_files, "search");
  check_contiguous(reco_files, "recommender");

  // The primary's corpus-global idf, installed verbatim (never rebuilt
  // from replayed contents — scores would diverge after the first update).
  std::shared_ptr<const std::vector<double>> idf;
  if (!idf_path.empty()) {
    std::ifstream is(idf_path, std::ios::binary);
    if (!is)
      throw common::ArtifactError("standby: cannot open " + idf_path);
    const linalg::Matrix m = linalg::load_matrix(is);
    if (m.rows() != 1)
      throw common::ArtifactError("standby: idf checkpoint is not a row");
    auto table = std::make_shared<std::vector<double>>(m.cols());
    for (std::size_t i = 0; i < m.cols(); ++i) (*table)[i] = m.at(0, i);
    idf = std::move(table);
  }

  std::vector<search::SearchComponent> comps;
  std::vector<std::uint64_t> search_versions;
  for (const auto& kv : search_files) {
    std::ifstream is(kv.second.second, std::ios::binary);
    if (!is)
      throw common::ArtifactError("standby: cannot open " + kv.second.second);
    comps.push_back(search::SearchComponent::load(is));
    search_versions.push_back(kv.second.first);
  }
  search_ = std::make_unique<search::SearchService>(std::move(comps), idf,
                                                    config_.k);
  search_->set_executor(&exec_);
  // Rebase each slot to the primary's checkpointed version: replayed
  // publishes now advance in lockstep with the delta stream, and the
  // promoted server reports the primary's effective epoch (no gap).
  search_cursor_.assign(search_versions.size(), Cursor{});
  for (std::size_t c = 0; c < search_versions.size(); ++c) {
    search_->component(c).rebase_epoch_version(search_versions[c]);
    search_cursor_[c].applied = search_versions[c];
  }

  if (!reco_files.empty()) {
    std::vector<reco::RecommenderComponent> rcomps;
    std::vector<std::uint64_t> reco_versions;
    for (const auto& kv : reco_files) {
      std::ifstream is(kv.second.second, std::ios::binary);
      if (!is)
        throw common::ArtifactError("standby: cannot open " + kv.second.second);
      rcomps.push_back(reco::RecommenderComponent::load(is));
      reco_versions.push_back(kv.second.first);
    }
    reco_ = std::make_unique<reco::CfService>(
        std::move(rcomps), config_.min_rating, config_.max_rating);
    reco_->set_executor(&exec_);
    reco_cursor_.assign(reco_versions.size(), Cursor{});
    for (std::size_t c = 0; c < reco_versions.size(); ++c) {
      reco_->component(c).rebase_epoch_version(reco_versions[c]);
      reco_cursor_[c].applied = reco_versions[c];
    }
  }

  state_ = StandbyState::kTailing;
  AT_LOG_DEBUG << "standby: loaded " << search_cursor_.size()
               << " search + " << reco_cursor_.size()
               << " recommender components";
}

// ---------------------------------------------------------------------------
// Tailing
// ---------------------------------------------------------------------------

void StandbyReplica::start() {
  common::MutexLock lock(mutex_);
  if (state_ != StandbyState::kTailing)
    throw std::runtime_error(std::string("standby: start() in state ") +
                             to_string(state_));
  if (tailer_.joinable()) return;  // already tailing
  stop_tailer_ = false;
  tailer_ = std::thread([this] {
    common::name_current_thread("at-tail");
    tail_loop();
  });
}

void StandbyReplica::tail_loop() {
  common::MutexLock lock(mutex_);
  while (!stop_tailer_) {
    if (state_ == StandbyState::kTailing) poll_locked();
    // Interruptible pacing: stop()/promote() flip stop_tailer_ under the
    // mutex and notify, so shutdown never waits out a poll interval.
    cv_.wait_for(mutex_, config_.poll_interval_ms);
  }
}

std::size_t StandbyReplica::poll_once() {
  common::MutexLock lock(mutex_);
  return poll_locked();
}

std::size_t StandbyReplica::poll_locked() {
  if (state_ != StandbyState::kTailing) return 0;
  ++polls_;

  // One listing per poll, bucketed per (kind, component) stream.
  std::vector<std::vector<Entry>> ready_c(search_cursor_.size());
  std::vector<std::vector<Entry>> ready_r(reco_cursor_.size());
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(config_.delta_dir, ec)) {
    const std::string name = de.path().filename().string();
    char kind = 0;
    std::uint32_t comp = 0;
    std::uint64_t version = 0;
    if (!synopsis::parse_stream_filename(name, "delta", &kind, &comp,
                                         &version)) {
      ++files_ignored_;  // ".tmp" in-flight writes, foreign files
      continue;
    }
    auto& buckets = (kind == 'c') ? ready_c : ready_r;
    if (comp >= buckets.size()) {
      ++files_ignored_;  // component the checkpoint does not know
      continue;
    }
    buckets[comp].push_back(Entry{version, de.path().string()});
  }
  if (ec) {
    // An unreadable stream directory is a (transient or fatal) tail
    // failure, not a gap; retried next poll.
    ++load_errors_;
    return 0;
  }

  std::size_t applied = 0;
  for (std::size_t c = 0; c < ready_c.size(); ++c)
    applied += replay_component_locked('c', c, std::move(ready_c[c]));
  for (std::size_t c = 0; c < ready_r.size(); ++c)
    applied += replay_component_locked('r', c, std::move(ready_r[c]));
  return applied;
}

std::size_t StandbyReplica::replay_component_locked(char kind,
                                                    std::size_t comp,
                                                    std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.version < b.version; });
  Cursor& cur =
      (kind == 'c') ? search_cursor_.at(comp) : reco_cursor_.at(comp);
  std::size_t applied = 0;
  bool gap_ahead = false;
  bool retry_ahead = false;  // load/apply failure: retry, not a gap
  for (const Entry& e : entries) {
    if (state_ != StandbyState::kTailing) return applied;
    if (e.version <= cur.applied) continue;  // re-delivered history: no-op

    synopsis::DeltaArtifact delta;
    try {
      std::ifstream is(e.path, std::ios::binary);
      if (!is)
        throw common::ArtifactError("standby: cannot open " + e.path);
      delta = synopsis::load_delta(is);
    } catch (const std::exception& ex) {
      // A well-named file that does not load is torn or corrupt. It can
      // never be applied, but skipping past it would hide a hole in the
      // chain — stop here and let the gap patience decide.
      ++load_errors_;
      AT_LOG_DEBUG << "standby: delta load failed (" << e.path
                   << "): " << ex.what();
      gap_ahead = true;
      break;
    }

    if (delta.to_version <= cur.applied) continue;
    if (delta.from_version != cur.applied) {
      // The next available delta starts ahead of our state: a middle
      // version is missing (not yet renamed into place, or lost forever).
      gap_ahead = true;
      break;
    }

    try {
      // Fires before any mutation: an injected failure leaves the
      // component untouched and the delta is retried next poll.
      AT_FAILPOINT("standby.apply");
      if (kind == 'c')
        search_->update_component(comp, delta.batch);
      else
        reco_->update_component(comp, delta.batch);
    } catch (const std::exception& ex) {
      ++apply_failures_;
      AT_LOG_DEBUG << "standby: apply failed (" << e.path
                   << "): " << ex.what();
      retry_ahead = true;
      break;
    }

    // Lockstep invariant: one publish per delta, so the slot must land
    // exactly on to_version. Anything else means the replica and the
    // stream disagree about history — structured resync, never silence.
    const std::uint64_t now = (kind == 'c')
                                  ? search_->component(comp).epoch_version()
                                  : reco_->component(comp).epoch_version();
    if (now != delta.to_version) {
      declare_resync_locked(
          std::string("epoch mismatch after replay of ") + e.path +
          ": slot at " + std::to_string(now) + ", delta ends at " +
          std::to_string(delta.to_version));
      return applied;
    }
    cur.applied = delta.to_version;
    cur.gap_polls = 0;
    ++deltas_applied_;
    ++applied;
  }

  if (gap_ahead) {
    // Writers rename deltas into place in version order per component, so
    // a persistent hole cannot be an in-flight write. Give out-of-order
    // arrival `gap_patience` polls to resolve, then demand a resync.
    if (++cur.gap_polls >= config_.gap_patience) {
      declare_resync_locked(
          std::string("version gap in ") + kind + std::to_string(comp) +
          " delta stream: replayed up to " + std::to_string(cur.applied) +
          ", next available delta starts beyond it");
    }
  } else if (!retry_ahead) {
    cur.gap_polls = 0;
  }
  return applied;
}

void StandbyReplica::declare_resync_locked(const std::string& reason) {
  if (state_ == StandbyState::kResyncRequired) return;  // first cause wins
  state_ = StandbyState::kResyncRequired;
  resync_reason_ = reason;
  AT_LOG_WARN << "standby: resync required: " << reason;
}

// ---------------------------------------------------------------------------
// Promotion and shutdown
// ---------------------------------------------------------------------------

Server& StandbyReplica::promote() {
  {
    common::MutexLock lock(mutex_);
    // Fires before any side effect: an injected error aborts the
    // promotion and the replica keeps tailing.
    AT_FAILPOINT("standby.promote");
    if (state_ == StandbyState::kPromoted) return *server_;
    if (state_ == StandbyState::kResyncRequired)
      throw std::runtime_error("standby: cannot promote, resync required: " +
                               resync_reason_);
    if (state_ != StandbyState::kTailing)
      throw std::runtime_error(std::string("standby: promote() in state ") +
                               to_string(state_));
    stop_tailer_ = true;
    cv_.notify_all();
  }
  if (tailer_.joinable()) tailer_.join();

  common::MutexLock lock(mutex_);
  // Final drain: everything the primary managed to rename into place is
  // on disk now; catch up completely before taking traffic. While a
  // component is stuck behind a gap keep polling — the primary is gone,
  // so nothing else will be renamed in and the patience window turns a
  // real hole into the structured resync instead of serving past it.
  for (;;) {
    const std::size_t n = poll_locked();
    if (state_ != StandbyState::kTailing) break;
    if (n > 0) continue;
    bool gaps_pending = false;
    for (const Cursor& c : search_cursor_)
      if (c.gap_polls > 0) gaps_pending = true;
    for (const Cursor& c : reco_cursor_)
      if (c.gap_polls > 0) gaps_pending = true;
    if (!gaps_pending) break;
  }
  if (state_ == StandbyState::kResyncRequired)
    throw std::runtime_error("standby: cannot promote, resync required: " +
                             resync_reason_);

  auto srv = std::make_unique<Server>(*search_, reco_.get(), exec_,
                                      config_.server);
  srv->start();  // throws on bind failure; state stays kTailing
  server_ = std::move(srv);
  state_ = StandbyState::kPromoted;
  AT_LOG_DEBUG << "standby: promoted, serving on port " << server_->port();
  return *server_;
}

void StandbyReplica::stop() {
  {
    common::MutexLock lock(mutex_);
    stop_tailer_ = true;
    cv_.notify_all();
  }
  if (tailer_.joinable()) tailer_.join();
  std::unique_ptr<Server> victim;
  {
    common::MutexLock lock(mutex_);
    victim = std::move(server_);
    state_ = StandbyState::kStopped;
  }
  // Server::stop joins its own threads — never under our mutex.
  if (victim != nullptr) victim->stop();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

StandbyState StandbyReplica::state() const {
  common::MutexLock lock(mutex_);
  return state_;
}

Server* StandbyReplica::server() {
  common::MutexLock lock(mutex_);
  return server_.get();
}

StandbyStats StandbyReplica::stats() const {
  common::MutexLock lock(mutex_);
  StandbyStats s;
  s.state = state_;
  s.polls = polls_;
  s.deltas_applied = deltas_applied_;
  s.files_ignored = files_ignored_;
  s.load_errors = load_errors_;
  s.apply_failures = apply_failures_;
  for (const Cursor& c : search_cursor_)
    if (c.gap_polls > 0) ++s.gaps_pending;
  for (const Cursor& c : reco_cursor_)
    if (c.gap_polls > 0) ++s.gaps_pending;
  s.resync_reason = resync_reason_;
  if (search_ != nullptr) s.search_epoch = search_->data_version();
  return s;
}

std::string StandbyReplica::stats_json() const {
  const StandbyStats s = stats();
  std::ostringstream os;
  os << "{\"state\": \"" << to_string(s.state) << "\", \"polls\": " << s.polls
     << ", \"deltas_applied\": " << s.deltas_applied
     << ", \"files_ignored\": " << s.files_ignored
     << ", \"load_errors\": " << s.load_errors
     << ", \"apply_failures\": " << s.apply_failures
     << ", \"gaps_pending\": " << s.gaps_pending
     << ", \"search_epoch\": " << s.search_epoch << ", \"resync_reason\": \""
     << s.resync_reason << "\"}";
  return os.str();
}

}  // namespace at::server
