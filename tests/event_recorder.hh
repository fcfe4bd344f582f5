/**
 * @file
 * Test helper: record the events a bus emits, in emission order.
 */

#ifndef ORION_TESTS_EVENT_RECORDER_HH
#define ORION_TESTS_EVENT_RECORDER_HH

#include <initializer_list>
#include <vector>

#include "sim/event.hh"

namespace orion::test {

/** Append every event of the @p types that @p bus emits to @p out
 * (which must outlive the subscription). */
inline void
recordEvents(sim::EventBus& bus, std::initializer_list<sim::EventType> types,
             std::vector<sim::Event>& out)
{
    for (const sim::EventType type : types) {
        bus.subscribeRaw(
            type,
            [](void* ctx, const sim::Event& ev) {
                static_cast<std::vector<sim::Event>*>(ctx)->push_back(ev);
            },
            &out);
    }
}

} // namespace orion::test

#endif // ORION_TESTS_EVENT_RECORDER_HH
