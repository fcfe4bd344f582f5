#include "core/executor.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace orion::core {

unsigned
resolveJobs(unsigned jobs)
{
    if (jobs != 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

void
parallelFor(unsigned jobs, std::size_t count,
            const std::function<void(std::size_t)>& body,
            const CancelToken* cancel)
{
    jobs = resolveJobs(jobs);
    if (jobs == 1 || count < 2) {
        for (std::size_t i = 0; i < count; ++i) {
            if (cancel != nullptr && cancel->cancelled())
                return;
            body(i);
        }
        return;
    }

    // Dynamic index assignment: an atomic cursor load-balances points
    // whose runtimes vary wildly (post-saturation points run to the
    // cycle cap, zero-load points finish quickly).
    std::atomic<std::size_t> cursor{0};
    std::vector<std::exception_ptr> errors(
        std::min<std::size_t>(jobs, count));
    const auto drain = [&](std::exception_ptr& error) {
        try {
            for (;;) {
                if (cancel != nullptr && cancel->cancelled())
                    return;
                const std::size_t i =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (i >= count)
                    return;
                body(i);
            }
        } catch (...) {
            error = std::current_exception();
        }
    };

    {
        // jthreads join when destroyed, so the threads already running
        // are joined even when starting a later one throws.
        std::vector<std::jthread> threads;
        threads.reserve(errors.size());
        for (std::exception_ptr& error : errors)
            threads.emplace_back(drain, std::ref(error));
    }
    for (const std::exception_ptr& error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

} // namespace orion::core
