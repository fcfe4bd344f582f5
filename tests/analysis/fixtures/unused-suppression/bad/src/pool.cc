// Fixture: a suppression that hides a live finding but gives no
// reason, and one in a retired spelling, which suppresses nothing.
namespace demo {

int*
makeOne()
{
    return new int(1); // lint-allow: naked-new
}

int*
makeTwo()
{
    return new int(2); // analyze-allow: naked-new -- retired spelling
}

} // namespace demo
