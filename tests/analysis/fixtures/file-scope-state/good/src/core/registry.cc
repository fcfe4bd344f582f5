// Fixture: src/core is outside the re-entrancy rule's directories.
namespace demo {

static int g_registered = 0;

int
registered()
{
    return g_registered;
}

} // namespace demo
