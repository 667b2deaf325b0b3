#include "support/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <memory>

namespace lisa {

ThreadPool::ThreadPool(size_t worker_count)
{
    workers.reserve(worker_count);
    for (size_t i = 0; i < worker_count; ++i)
        workers.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        support::LockGuard lock(mutex);
        stopping = true;
    }
    taskReady.notify_all();
    for (std::thread &w : workers)
        w.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            support::UniqueLock lock(mutex);
            // Plain wait loop (not the predicate overload) so the
            // capability analysis sees `stopping`/`tasks` read with the
            // pool mutex held; wait() re-acquires before returning.
            while (!stopping && tasks.empty())
                taskReady.wait(lock);
            if (stopping && tasks.empty())
                return;
            task = std::move(tasks.front());
            tasks.pop_front();
        }
        task();
    }
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &body)
{
    if (n == 0)
        return;
    if (workers.empty() || n == 1) {
        for (size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    // Shared claim counter: every participant (worker runners plus the
    // caller) pulls the next unclaimed index until the range is drained.
    struct Batch
    {
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        support::Mutex doneMutex;
        std::condition_variable_any allDone;
    };
    auto batch = std::make_shared<Batch>();
    const size_t total = n;

    auto runner = [batch, total, &body]() {
        for (;;) {
            // relaxed: pure index claim — only uniqueness matters, and
            // fetch_add is always atomic; body(i) data is thread-local.
            size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= total)
                break;
            body(i);
            if (batch->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                total) {
                support::LockGuard lock(batch->doneMutex);
                batch->allDone.notify_all();
            }
        }
    };

    const size_t helpers = std::min(workers.size(), n - 1);
    {
        support::LockGuard lock(mutex);
        for (size_t i = 0; i < helpers; ++i)
            tasks.emplace_back(runner);
    }
    for (size_t i = 0; i < helpers; ++i)
        taskReady.notify_one();

    // The caller drains indices too; when it runs out, it waits for the
    // worker runners to finish their claimed indices. The runner lambdas
    // only borrow `body` while the batch is alive, and the batch cannot
    // outlive this frame because we block until done == total.
    runner();
    support::UniqueLock lock(batch->doneMutex);
    batch->allDone.wait(lock, [&]() {
        return batch->done.load(std::memory_order_acquire) == total;
    });
}

namespace {

support::Mutex g_poolMutex;
std::unique_ptr<ThreadPool> g_pool LISA_GUARDED_BY(g_poolMutex);
int g_threads LISA_GUARDED_BY(g_poolMutex) = 1;

} // namespace

ThreadPool &
ThreadPool::global()
{
    support::LockGuard lock(g_poolMutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(
            static_cast<size_t>(g_threads - 1));
    return *g_pool;
}

void
ThreadPool::setGlobalThreads(int threads)
{
    support::LockGuard lock(g_poolMutex);
    threads = std::max(1, threads);
    if (threads == g_threads && g_pool)
        return;
    g_threads = threads;
    g_pool.reset(); // recreated lazily with the new size
}

int
ThreadPool::globalThreads()
{
    support::LockGuard lock(g_poolMutex);
    return g_threads;
}

} // namespace lisa
