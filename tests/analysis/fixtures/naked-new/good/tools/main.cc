// Fixture: tools are outside the library's ownership rule.
int
main()
{
    int* value = new int(0);
    const int result = *value;
    delete value;
    return result;
}
