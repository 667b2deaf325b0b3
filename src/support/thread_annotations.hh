/**
 * @file
 * Machine-checked concurrency contracts: Clang capability-analysis
 * macros and a thin annotated mutex wrapper.
 *
 * Every shared-state subsystem in the search stack (ArchContext and its
 * OracleStores and routability-model slot, the thread pool, the
 * routability sample sink, the portfolio incumbent) declares *which* lock
 * guards *what* directly in the type, and Clang's -Wthread-safety
 * analysis proves at compile time that no guarded member is ever touched
 * without its capability held. A lost update on shared state is exactly
 * the class of bug these contracts exist to make unrepresentable: the
 * invariants no longer live in reviewers' heads and in whatever TSan
 * happens to exercise, but in the signatures.
 *
 * Usage:
 *
 *     class Cache {
 *         mutable support::Mutex mu;
 *         std::map<int, Entry> entries LISA_GUARDED_BY(mu);
 *         void rebuild() LISA_REQUIRES(mu);   // caller holds mu
 *       public:
 *         Entry lookup(int k) { support::LockGuard lock(mu); ... }
 *     };
 *
 * Portability: the attributes only exist on Clang; on GCC (the container
 * toolchain) every macro expands to nothing and support::Mutex is a plain
 * std::mutex wrapper with identical codegen. The analysis is enforced in
 * the CI `thread-safety` job (clang++ -Wthread-safety
 * -Werror=thread-safety) with a configure-time must-fail negative control
 * proving the analysis is live (tests/compile_checks/
 * thread_safety_violation.cc), and a no-op control proving the macros
 * vanish on non-capability compilers.
 *
 * What the analysis cannot see — lock-free atomics (IiIncumbent's packed
 * word, OracleStore's published-table pointers, the routability mode
 * cell) — is covered by the companion determinism lint
 * (tools/check_determinism.py): every memory_order_relaxed operation must
 * carry a `relaxed:` rationale comment stating why the weak ordering is
 * sound, and DESIGN.md section 13 holds the full capability map.
 */

#ifndef LISA_SUPPORT_THREAD_ANNOTATIONS_HH
#define LISA_SUPPORT_THREAD_ANNOTATIONS_HH

#include <mutex>

#if defined(__clang__)
#define LISA_THREAD_ANNOTATION(...) __attribute__((__VA_ARGS__))
#else
#define LISA_THREAD_ANNOTATION(...)
#endif

/** Marks a type as a lockable capability ("mutex", "role", ...). */
#define LISA_CAPABILITY(x) LISA_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type that acquires in its ctor and releases in its
 *  dtor (std::lock_guard-shaped). */
#define LISA_SCOPED_CAPABILITY LISA_THREAD_ANNOTATION(scoped_lockable)

/** Data member may only be touched while holding the given capability. */
#define LISA_GUARDED_BY(x) LISA_THREAD_ANNOTATION(guarded_by(x))

/** Pointer member whose *pointee* is guarded by the given capability. */
#define LISA_PT_GUARDED_BY(x) LISA_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function requires the capability held on entry (and keeps it held). */
#define LISA_REQUIRES(...)                                                 \
    LISA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function acquires the capability; it must not be held on entry. */
#define LISA_ACQUIRE(...)                                                  \
    LISA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the capability; it must be held on entry. */
#define LISA_RELEASE(...)                                                  \
    LISA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function acquires the capability iff it returns the given value. */
#define LISA_TRY_ACQUIRE(...)                                              \
    LISA_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Function must NOT be called with the capability held (deadlock
 *  documentation for self-locking entry points). */
#define LISA_EXCLUDES(...)                                                 \
    LISA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function returns a reference to the given capability. */
#define LISA_RETURN_CAPABILITY(x) LISA_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch: skip analysis for one function. Use only where the
 *  locking pattern is correct but inexpressible; leave a comment why. */
#define LISA_NO_THREAD_SAFETY_ANALYSIS                                     \
    LISA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace lisa::support {

/**
 * std::mutex with the capability attribute the analysis needs.
 * Drop-in for the guarded-state subsystems; zero-cost (the wrapper is
 * one inline call on every path, identical codegen to a bare
 * std::mutex). Satisfies BasicLockable, so std::condition_variable_any
 * can wait on it through UniqueLock below.
 */
class LISA_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() LISA_ACQUIRE() { mu.lock(); }
    void unlock() LISA_RELEASE() { mu.unlock(); }

  private:
    std::mutex mu;
};

/** Annotated std::lock_guard: holds the Mutex for the enclosing scope. */
class LISA_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &m) LISA_ACQUIRE(m) : mu(m) { mu.lock(); }
    ~LockGuard() LISA_RELEASE() { mu.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &mu;
};

/**
 * Annotated std::unique_lock (subset): a scoped hold that a
 * std::condition_variable_any may temporarily release inside wait().
 * The analysis treats wait() as opaque, which is sound: the lock is
 * re-acquired before wait() returns, so the capability is held at every
 * point the caller can observe.
 */
class LISA_SCOPED_CAPABILITY UniqueLock
{
  public:
    explicit UniqueLock(Mutex &m) LISA_ACQUIRE(m) : mu(m)
    {
        mu.lock();
        held = true;
    }

    ~UniqueLock() LISA_RELEASE()
    {
        if (held)
            mu.unlock();
    }

    /** @{ BasicLockable surface for std::condition_variable_any. */
    void
    lock() LISA_ACQUIRE()
    {
        mu.lock();
        held = true;
    }

    void
    unlock() LISA_RELEASE()
    {
        mu.unlock();
        held = false;
    }
    /** @} */

    UniqueLock(const UniqueLock &) = delete;
    UniqueLock &operator=(const UniqueLock &) = delete;

  private:
    Mutex &mu;
    bool held = false;
};

} // namespace lisa::support

#endif // LISA_SUPPORT_THREAD_ANNOTATIONS_HH
