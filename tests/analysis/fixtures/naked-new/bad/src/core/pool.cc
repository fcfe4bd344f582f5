// Fixture: owning raw pointers in library code.
namespace demo {

int*
make()
{
    return new int(3);
}

void
drop(int* value, int* values)
{
    delete value;
    delete[] values;
}

} // namespace demo
