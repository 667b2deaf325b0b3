/**
 * @file
 * Fixed-size worker pool used by the parallel mapper stack.
 *
 * A pool of N worker threads drains one shared task queue. Its entry
 * point, parallelFor(n, body), runs body(0..n-1) across the pool and
 * blocks until every index finished. The calling thread participates in
 * its own batch, so nested parallelFor calls from inside a worker task
 * can never deadlock (the nested caller drains its own indices itself
 * when all workers are busy).
 *
 * A pool constructed with zero workers degrades to strictly serial inline
 * execution, which is the deterministic `--threads 1` baseline. The
 * process-wide pool (`ThreadPool::global()`) is sized by
 * setGlobalThreads(T) as T-1 workers plus the participating caller; T
 * defaults to 1.
 *
 * Task bodies must not throw: parallelFor bodies run on arbitrary threads
 * where an escape would terminate the process.
 */

#ifndef LISA_SUPPORT_THREAD_POOL_HH
#define LISA_SUPPORT_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_annotations.hh"

namespace lisa {

class ThreadPool
{
  public:
    /** Spawn @p workers threads (0 = run everything inline). */
    explicit ThreadPool(size_t workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads (excluding participating callers). */
    size_t size() const { return workers.size(); }

    /**
     * Run body(i) for every i in [0, n). Blocks until all indices are
     * done; the caller executes indices alongside the workers.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &body);

    /**
     * The process-wide pool, created on first use with the configured
     * thread count minus one (the caller is the extra worker).
     */
    static ThreadPool &global();

    /**
     * Configure the global parallelism degree T (clamped to >= 1);
     * recreates the global pool if it already exists with another size.
     * Call at startup, never while parallel work is in flight.
     */
    static void setGlobalThreads(int threads);

    /** The configured global parallelism degree. */
    static int globalThreads();

  private:
    void workerLoop();

    /** Immutable after construction (joined in the destructor). */
    std::vector<std::thread> workers;
    support::Mutex mutex;
    /** Pending task queue; workers pop under the pool mutex. */
    std::deque<std::function<void()>> tasks LISA_GUARDED_BY(mutex);
    /** Signalled on parallelFor and at shutdown; waited on under `mutex`. */
    std::condition_variable_any taskReady;
    bool stopping LISA_GUARDED_BY(mutex) = false;
};

} // namespace lisa

#endif // LISA_SUPPORT_THREAD_POOL_HH
