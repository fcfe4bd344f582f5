// Fixture: suppressions that rot — one stale, one naming an unknown
// rule, one with no justification.
namespace demo {

int
lookup(int key)
{
    return key * 2; // lint-allow: unordered-iteration -- was a map walk once
}

int
twice(int v)
{
    return v + v; // lint-allow: not-a-rule -- no such rule exists
}

int
thrice(int v)
{
    return v * 3; // lint-allow: rng-sharing
}

} // namespace demo
