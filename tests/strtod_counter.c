/* A strtod that counts its calls, linked into a test build of src/mixtt/_kernel.c
 * compiled with -Dstrtod=counted_strtod; see tests/test_csv_reader.py. */
#undef strtod
#include <stdlib.h>

long long strtod_calls;

double counted_strtod(const char *text, char **end)
{
    strtod_calls++;
    return strtod(text, end);
}
