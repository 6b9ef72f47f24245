#include "urmem/sim/campaign_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "urmem/common/contracts.hpp"
#include "urmem/common/thread_safety.hpp"

namespace urmem {

namespace {

/// Contiguous [next, end) trial range owned by one worker. The mutex
/// serializes owner claims against thief splits; the fields are atomic
/// so victim-selection can snapshot backlogs without taking locks.
struct shard {
  ts_mutex mutex;
  // Deliberately atomic and NOT guarded_by(mutex): victim selection
  // snapshots them lock-free by design; claims and splits still
  // serialize on the mutex before storing.
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> end{0};
};

/// One campaign in flight: the shards (over groups of `group`
/// consecutive trials), the body, and the merged bookkeeping. Lives on
/// run_units()'s stack; workers borrow it.
struct campaign {
  const std::function<void(std::uint64_t, std::span<rng>, unsigned)>* body =
      nullptr;
  std::uint64_t trials = 0;
  std::uint64_t group = 1;
  std::uint64_t seed = 0;
  std::uint64_t batch = 1;
  std::unique_ptr<shard[]> shards;
  unsigned shard_count = 0;
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<bool> cancelled{false};
  ts_mutex error_mutex;
  std::exception_ptr error URMEM_GUARDED_BY(error_mutex);

  void record_error(std::exception_ptr e) {
    const ts_lock_guard lock(error_mutex);
    if (!error) error = std::move(e);
    cancelled.store(true, std::memory_order_relaxed);
  }

  /// First recorded error, if any. The workers have joined (or the pool
  /// has quiesced) by the time run() asks, but the read still goes
  /// through the lock so the guard is unconditional.
  [[nodiscard]] std::exception_ptr first_error() {
    const ts_lock_guard lock(error_mutex);
    return error;
  }
};

/// Claims up to `batch` trials from the front of `s`.
bool claim(shard& s, std::uint64_t batch, std::uint64_t& begin,
           std::uint64_t& end) {
  const ts_lock_guard lock(s.mutex);
  const std::uint64_t next = s.next.load(std::memory_order_relaxed);
  const std::uint64_t limit = s.end.load(std::memory_order_relaxed);
  if (next >= limit) return false;
  begin = next;
  end = std::min(limit, begin + batch);
  s.next.store(end, std::memory_order_relaxed);
  return true;
}

/// Moves half of the fullest foreign backlog into `self`'s drained
/// shard. The refilled shard is claimed batch-wise afterwards (and can
/// itself be stolen from again), so one steal never turns into a
/// monolithic uninterruptible range.
bool steal(campaign& job, unsigned self) {
  // Lock-free snapshot picks the victim; the split is re-checked under
  // the victim's lock.
  unsigned victim = job.shard_count;
  std::uint64_t best = 0;
  for (unsigned i = 0; i < job.shard_count; ++i) {
    if (i == self) continue;
    const shard& s = job.shards[i];
    const std::uint64_t next = s.next.load(std::memory_order_relaxed);
    const std::uint64_t limit = s.end.load(std::memory_order_relaxed);
    const std::uint64_t remaining = limit > next ? limit - next : 0;
    if (remaining > best) {
      best = remaining;
      victim = i;
    }
  }
  if (victim == job.shard_count) return false;

  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  {
    shard& v = job.shards[victim];
    const ts_lock_guard lock(v.mutex);
    const std::uint64_t next = v.next.load(std::memory_order_relaxed);
    const std::uint64_t limit = v.end.load(std::memory_order_relaxed);
    if (next >= limit) return false;
    const std::uint64_t remaining = limit - next;
    begin = next;
    end = begin + (remaining - remaining / 2);  // ceil(half)
    v.next.store(end, std::memory_order_relaxed);
  }
  // Only the owner refills its shard, and it is empty while stealing.
  shard& own = job.shards[self];
  const ts_lock_guard lock(own.mutex);
  own.next.store(begin, std::memory_order_relaxed);
  own.end.store(end, std::memory_order_relaxed);
  return true;
}

/// Worker body: drain own shard in batches, refilling it by stealing,
/// until the campaign is exhausted (or cancelled by a trial exception).
void execute(campaign& job, unsigned self) {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::vector<rng> gens(job.group, rng(0));  // refilled for each group
  for (;;) {
    if (job.cancelled.load(std::memory_order_relaxed)) return;
    if (!claim(job.shards[self], job.batch, begin, end)) {
      if (!steal(job, self)) return;
      job.steals.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    job.batches.fetch_add(1, std::memory_order_relaxed);
    try {
      for (std::uint64_t unit = begin; unit < end; ++unit) {
        const std::uint64_t first = unit * job.group;
        const std::uint64_t count = std::min(job.group, job.trials - first);
        for (std::uint64_t k = 0; k < count; ++k) {
          gens[k] = make_stream_rng(job.seed, first + k);
        }
        (*job.body)(first, std::span<rng>(gens.data(), count), self);
      }
    } catch (...) {
      job.record_error(std::current_exception());
      return;
    }
  }
}

std::uint64_t auto_batch(std::uint64_t trials, unsigned threads) {
  // Roughly 32 scheduling steps per worker, clamped so micro-trial
  // campaigns (Fig. 5: ~1e7 cheap trials) do not serialize on the locks
  // and heavy-trial campaigns (Fig. 7: retraining) still balance.
  const std::uint64_t target =
      trials / (static_cast<std::uint64_t>(threads) * 32 + 1);
  return std::clamp<std::uint64_t>(target, 1, 4096);
}

}  // namespace

/// Persistent worker pool: workers sleep between campaigns and wake on a
/// generation bump.
struct campaign_runner::pool {
  explicit pool(unsigned workers) {
    threads.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      threads.emplace_back([this, i] { worker_main(i); });
    }
  }

  ~pool() {
    {
      const ts_lock_guard lock(mutex);
      stopping = true;
    }
    work_cv.notify_all();
    for (std::thread& t : threads) t.join();
  }

  void run(campaign& job) {
    {
      const ts_lock_guard lock(mutex);
      current = &job;
      ++generation;
      workers_done = 0;
    }
    work_cv.notify_all();
    const ts_lock_guard lock(mutex);
    while (workers_done != threads.size()) done_cv.wait(mutex);
    current = nullptr;
  }

  void worker_main(unsigned id) {
    std::uint64_t seen = 0;
    for (;;) {
      campaign* job = nullptr;
      {
        const ts_lock_guard lock(mutex);
        while (!stopping && generation == seen) work_cv.wait(mutex);
        if (stopping) return;
        seen = generation;
        job = current;
      }
      execute(*job, id);
      {
        const ts_lock_guard lock(mutex);
        if (++workers_done == threads.size()) done_cv.notify_one();
      }
    }
  }

  ts_mutex mutex;
  ts_condition_variable work_cv;
  ts_condition_variable done_cv;
  std::vector<std::thread> threads;
  campaign* current URMEM_GUARDED_BY(mutex) = nullptr;
  std::uint64_t generation URMEM_GUARDED_BY(mutex) = 0;
  std::size_t workers_done URMEM_GUARDED_BY(mutex) = 0;
  bool stopping URMEM_GUARDED_BY(mutex) = false;
};

campaign_runner::campaign_runner(campaign_config config)
    : config_(config) {
  thread_count_ = config.threads != 0
                      ? config.threads
                      : std::max(1u, std::thread::hardware_concurrency());
  if (thread_count_ > 1) pool_ = std::make_unique<pool>(thread_count_);
}

campaign_runner::~campaign_runner() = default;

void campaign_runner::run(std::uint64_t trials, const trial_body& body) {
  expects(static_cast<bool>(body), "campaign needs a trial body");
  run_units(trials, 1, [&body](std::uint64_t trial, std::span<rng> gens,
                               unsigned) { body(trial, gens[0]); });
}

void campaign_runner::run(std::uint64_t trials, const worker_trial_body& body) {
  expects(static_cast<bool>(body), "campaign needs a trial body");
  run_units(trials, 1, [&body](std::uint64_t trial, std::span<rng> gens,
                               unsigned worker) {
    body(trial, gens[0], worker);
  });
}

void campaign_runner::run_groups(std::uint64_t trials, std::uint64_t group,
                                 const worker_group_body& body) {
  expects(static_cast<bool>(body), "campaign needs a group body");
  expects(group >= 1, "a group holds at least one trial");
  run_units(trials, group, body);
}

void campaign_runner::run_units(std::uint64_t trials, std::uint64_t group,
                                const worker_group_body& body) {
  last_stats_ = campaign_stats{};
  last_stats_.threads = thread_count_;
  if (trials == 0) return;

  const std::uint64_t units = (trials - 1) / group + 1;
  campaign job;
  job.body = &body;
  job.trials = trials;
  job.group = group;
  job.seed = config_.seed;
  // batch_size counts trials; a claim takes whole groups, rounded up.
  job.batch = config_.batch_size != 0 ? (config_.batch_size - 1) / group + 1
                                      : auto_batch(units, thread_count_);
  job.shard_count = thread_count_;
  job.shards = std::make_unique<shard[]>(thread_count_);
  // Even contiguous pre-split; the remainder spreads over the low shards.
  const std::uint64_t quota = units / thread_count_;
  const std::uint64_t extra = units % thread_count_;
  std::uint64_t cursor = 0;
  for (unsigned i = 0; i < thread_count_; ++i) {
    job.shards[i].next = cursor;
    cursor += quota + (i < extra ? 1 : 0);
    job.shards[i].end = cursor;
  }

  if (pool_ != nullptr) {
    pool_->run(job);
  } else {
    execute(job, 0);
  }

  last_stats_.trials = trials;
  last_stats_.batches = job.batches.load(std::memory_order_relaxed);
  last_stats_.steals = job.steals.load(std::memory_order_relaxed);
  if (std::exception_ptr e = job.first_error()) std::rethrow_exception(e);
}

empirical_cdf campaign_runner::map_weighted(
    std::uint64_t trials,
    const std::function<weighted_sample(std::uint64_t, rng&)>& fn) {
  expects(static_cast<bool>(fn), "campaign needs a sampling body");
  expects(trials > 0, "a weighted campaign needs at least one trial");
  // Samples land straight in the two columns empirical_cdf takes, so no
  // third per-trial copy is alive while the CDF sorts.
  std::vector<double> values(trials);
  std::vector<double> weights(trials);
  run(trials, [&values, &weights, &fn](std::uint64_t trial, rng& gen) {
    const weighted_sample s = fn(trial, gen);
    values[trial] = s.value;
    weights[trial] = s.weight;
  });
  return empirical_cdf(std::move(values), std::move(weights));
}

}  // namespace urmem
