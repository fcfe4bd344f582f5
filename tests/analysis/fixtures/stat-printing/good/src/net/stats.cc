// Fixture: counters reach the outside world through the metrics
// registry, never a print.
namespace demo {

struct MetricsRegistry
{
    void counter(const char* name, const unsigned long* value);
};

void
registerDelivered(MetricsRegistry& registry, const unsigned long* delivered)
{
    registry.counter("net.delivered", delivered);
}

} // namespace demo
