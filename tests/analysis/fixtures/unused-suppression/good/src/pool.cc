// Fixture: a live suppression with its reason.
namespace demo {

int*
makeOne()
{
    return new int(1); // lint-allow: naked-new -- handed to a C API that frees it
}

} // namespace demo
