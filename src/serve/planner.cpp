#include "src/serve/planner.hpp"

#include <algorithm>
#include <cstdio>

#include "src/common/nc_assert.hpp"

namespace netcache::serve {

Planner::Planner(sweep::ResultCache* cache, std::size_t max_queued)
    : cache_(cache), max_queued_(max_queued) {}

std::string Planner::job_key(const sweep::Cell& cell) {
  // The result cache's canonical description IS the identity (version
  // fingerprint included): dedup agrees with the cache by construction.
  // Uncacheable cells (custom workloads, as isolated benchmark grids use)
  // cannot be compared, so each gets a key no other call returns: two of
  // them never dedup, even with equal labels in one request.
  if (sweep::ResultCache::cacheable(cell)) {
    return sweep::ResultCache::key_description(
        cell, cache_ != nullptr ? cache_->version()
                                : sweep::version_fingerprint());
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "#uncacheable-%ld", ++uncacheable_keys_);
  return cell.label() + buf;
}

Planner::Admission Planner::admit(int request_id,
                                  const std::vector<sweep::Cell>& cells) {
  Admission adm;
  adm.total_cells = cells.size();

  // Phase 1 — plan without mutating: probe the cache and the in-flight
  // table, count the genuinely new jobs (dedup within the request too).
  struct Placement {
    enum class Kind { kHit, kAttach, kNew } kind;
    std::size_t new_index = 0;       // for kNew: index into new_keys
    long job = -1;                   // for kAttach
    core::RunSummary cached;         // for kHit
  };
  std::vector<Placement> placements(cells.size());
  std::vector<std::string> new_keys;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string key = job_key(cells[i]);
    auto in_flight = in_flight_.find(key);
    if (in_flight != in_flight_.end()) {
      placements[i].kind = Placement::Kind::kAttach;
      placements[i].job = in_flight->second;
      continue;
    }
    auto dup = std::find(new_keys.begin(), new_keys.end(), key);
    if (dup != new_keys.end()) {
      placements[i].kind = Placement::Kind::kNew;
      placements[i].new_index =
          static_cast<std::size_t>(dup - new_keys.begin());
      continue;
    }
    if (cache_ != nullptr &&
        cache_->lookup(cells[i], &placements[i].cached)) {
      placements[i].kind = Placement::Kind::kHit;
      continue;
    }
    placements[i].kind = Placement::Kind::kNew;
    placements[i].new_index = new_keys.size();
    new_keys.push_back(key);
  }

  if (queue_.size() + new_keys.size() > max_queued_) {
    char why[160];
    std::snprintf(why, sizeof(why),
                  "overloaded: request needs %zu new cell(s) but the "
                  "admission queue holds %zu of %zu — retry later",
                  new_keys.size(), queue_.size(), max_queued_);
    adm.reject_reason = why;
    return adm;  // phase 1 touched nothing: rejection leaks no state
  }

  // Phase 2 — commit.
  adm.accepted = true;
  std::vector<long> new_job_ids(new_keys.size(), -1);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    Placement& p = placements[i];
    switch (p.kind) {
      case Placement::Kind::kHit: {
        Delivery d;
        d.request_id = request_id;
        d.index = i;
        d.label = cells[i].label();
        d.result.ok = true;
        d.result.from_cache = true;
        d.result.summary = std::move(p.cached);
        adm.immediate.push_back(std::move(d));
        break;
      }
      case Placement::Kind::kAttach: {
        jobs_.at(p.job).waiters.push_back(Waiter{request_id, i});
        pending_[request_id] += 1;
        adm.attached += 1;
        break;
      }
      case Placement::Kind::kNew: {
        long& id = new_job_ids[p.new_index];
        if (id < 0) {
          id = next_id_++;
          Job job;
          job.cell = cells[i];
          job.label = cells[i].label();
          jobs_.emplace(id, std::move(job));
          in_flight_.emplace(new_keys[p.new_index], id);
          queue_.push_back(id);
          adm.new_jobs += 1;
        } else {
          adm.attached += 1;  // intra-request duplicate rides the first copy
        }
        jobs_.at(id).waiters.push_back(Waiter{request_id, i});
        pending_[request_id] += 1;
        break;
      }
    }
  }
  // A request of pure cache hits still needs a pending_ entry so
  // pending(request_id) is well-defined (0 -> done immediately).
  pending_.try_emplace(request_id, 0);
  return adm;
}

long Planner::next_job() {
  if (queue_.empty()) return -1;
  const long id = queue_.front();
  queue_.pop_front();
  jobs_.at(id).running = true;
  return id;
}

const sweep::Cell& Planner::job_cell(long id) const {
  return jobs_.at(id).cell;
}

void Planner::complete(long id, const sweep::CellResult& result,
                       std::vector<Delivery>* out) {
  auto it = jobs_.find(id);
  NC_ASSERT(it != jobs_.end(), "planner: complete() of unknown job");
  Job& job = it->second;
  if (result.ok && result.summary.verified && cache_ != nullptr) {
    cache_->store(job.cell, result.summary);
  }
  for (const Waiter& w : job.waiters) {
    Delivery d;
    d.request_id = w.request_id;
    d.index = w.index;
    d.label = job.label;
    d.result = result;
    out->push_back(std::move(d));
    auto p = pending_.find(w.request_id);
    if (p != pending_.end() && p->second > 0) p->second -= 1;
  }
  // Erase from in_flight_ by value (the key text is long; jobs are few).
  for (auto f = in_flight_.begin(); f != in_flight_.end(); ++f) {
    if (f->second == id) {
      in_flight_.erase(f);
      break;
    }
  }
  jobs_.erase(it);
}

void Planner::fail_queued(const std::string& error,
                          std::vector<Delivery>* out) {
  sweep::CellResult failed;
  failed.ok = false;
  failed.error = error;
  // complete() mutates queue-adjacent state; snapshot the queued ids first.
  std::vector<long> ids(queue_.begin(), queue_.end());
  queue_.clear();
  for (long id : ids) complete(id, failed, out);
}

void Planner::drop_request(int request_id) {
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    Job& job = it->second;
    job.waiters.erase(
        std::remove_if(job.waiters.begin(), job.waiters.end(),
                       [request_id](const Waiter& w) {
                         return w.request_id == request_id;
                       }),
        job.waiters.end());
    if (job.waiters.empty() && !job.running) {
      // Nobody wants it and it never started: drop it from the queue too.
      const long id = it->first;
      queue_.erase(std::remove(queue_.begin(), queue_.end(), id),
                   queue_.end());
      for (auto f = in_flight_.begin(); f != in_flight_.end(); ++f) {
        if (f->second == id) {
          in_flight_.erase(f);
          break;
        }
      }
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
  pending_.erase(request_id);
}

std::size_t Planner::pending(int request_id) const {
  auto it = pending_.find(request_id);
  return it == pending_.end() ? 0 : it->second;
}

std::size_t Planner::running_jobs() const {
  std::size_t n = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.running) ++n;
  }
  return n;
}

}  // namespace netcache::serve
