/* Compiled Gibbs chain for mixtt.gibbs.run_chain, normal draws for
 * mixtt.harness.generate_dataset, and the block scan of
 * mixtt.reports.read_sample_csv.
 *
 * run_chain() repeats, operation for operation, the Python sweep in
 * gibbs.py and the variates in distributions.py: xoshiro256++ words,
 * 128-layer ziggurat normals, and Marsaglia-Tsang gammas with the shape < 1
 * boost, with every float expression written in the same order. normals()
 * repeats distributions.sample_normal the same way. The ziggurat tables are
 * not computed here: set_ziggurat() copies distributions.ZIGGURAT_X and
 * ZIGGURAT_F in once, when gibbs loads the library. Built without FMA
 * contraction (-ffp-contract=off) and calling the same libm as the
 * interpreter, both therefore yield bit-identical draws.
 *
 * Each variate returns its draw as its Python twin does, or NAN where the
 * twin would raise. run_chain() alone decides when to give up: it returns 1
 * as soon as a sweep draws a variance that is not finite and > 0 or a mean
 * that is not finite, and the caller then reruns the chain in Python, which
 * reports the error or returns its own draws. It returns 0 once every kept
 * draw is written to the caller's one (4, kept) block.
 *
 * scan_block() parses a block of plain `value,label` lines in one pass, so
 * no Python object is made per row. It takes only values of a strict ASCII
 * grammar. read_number() checks that grammar and, in the same walk over the
 * value, converts one of up to 19 significant digits with a decimal exponent
 * in [-342, 308] by Eisel-Lemire; any other value goes to strtod. Both
 * round correctly, as CPython's float() (David Gay's dtoa) does, so every
 * value taken becomes the double float() gives. The Eisel-Lemire table, the
 * 128-bit powers of five, is not computed here either: set_powers_of_five()
 * copies it in when gibbs loads the library. The scan declines the whole
 * block at anything else, such as whitespace, non-ASCII digits, inf, nan,
 * '_', hex or an overflow, and where strtod does not consume exactly the
 * value, as under a locale whose decimal point is not '.' (the Eisel-Lemire
 * path, like float(), reads '.' under any locale); the caller then reads the
 * block in Python.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define U53 0x1p-53
#define ZIGGURAT_LAYERS 128

/* 5^q for q in [POW5_MIN, POW5_MAX], each as its 128 leading bits (truncated;
 * for q < 0, of 1 + the truncated reciprocal), high word first, from set_powers_of_five() */
#define POW5_MIN (-342)
#define POW5_MAX 308
static uint64_t pow5[2 * (POW5_MAX - POW5_MIN + 1)];

/* layer edges x[0..128] and heights f[k] = exp(-x[k]^2 / 2), from set_ziggurat();
 * the tail starts at x[1] */
static double zig_x[ZIGGURAT_LAYERS + 1], zig_f[ZIGGURAT_LAYERS + 1];

typedef struct {
    uint64_t s[4];
} rng_t;

static uint64_t next_u64(rng_t *r)
{
    uint64_t *s = r->s;
    uint64_t x = s[0] + s[3];
    uint64_t result = ((x << 23) | (x >> 41)) + s[0];
    uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = (s[3] << 45) | (s[3] >> 19);
    return result;
}

static double random_unit(rng_t *r)
{
    return ((double)(next_u64(r) >> 11) + 0.5) * U53;
}

void set_ziggurat(const double x[ZIGGURAT_LAYERS + 1], const double f[ZIGGURAT_LAYERS + 1])
{
    for (int k = 0; k <= ZIGGURAT_LAYERS; k++) {
        zig_x[k] = x[k];
        zig_f[k] = f[k];
    }
}

void set_powers_of_five(const uint64_t table[2 * (POW5_MAX - POW5_MIN + 1)])
{
    memcpy(pow5, table, sizeof pow5);
}

static double normal_tail(rng_t *r)
{
    for (;;) {
        double x = -log(random_unit(r)) / zig_x[1];
        double y = -log(random_unit(r));
        if (y + y >= x * x)
            return zig_x[1] + x;
    }
}

/* Layer from bits 0-6, sign from bit 7, magnitude from bits 11-63. */
static double standard_normal(rng_t *r)
{
    uint64_t w;
    double x;
    for (;;) {
        w = next_u64(r);
        int k = (int)(w & 127);
        x = (double)(w >> 11) * U53 * zig_x[k];
        if (x < zig_x[k + 1])
            break;
        if (k == 0) {
            x = normal_tail(r);
            break;
        }
        if (zig_f[k + 1] + (zig_f[k] - zig_f[k + 1]) * random_unit(r) < exp(-0.5 * x * x))
            break;
    }
    return (w & 128) ? -x : x;
}

/* Gamma(shape, 1) for shape >= 1. Past the t <= 0 test, t >= 2^-53 (for c*x in
 * (-1, -0.5] the sum is exact), so v = t^3 >= 2^-159 and log(v) is finite. */
static double standard_gamma(rng_t *r, double shape)
{
    double d = shape - 1.0 / 3.0;
    double c = 1.0 / sqrt(9.0 * d);
    for (;;) {
        double x = standard_normal(r);
        double t = 1.0 + c * x;
        if (t <= 0.0)
            continue;
        double v = t * t * t;
        double u = random_unit(r);
        double x2 = x * x;
        if (u < 1.0 - 0.0331 * x2 * x2)
            return d * v;
        if (log(u) < 0.5 * x2 + d * (1.0 - v + log(v)))
            return d * v;
    }
}

/* IG(shape, scale); NAN unless shape and scale are finite and > 0. */
static double inverse_gamma(rng_t *r, double shape, double scale)
{
    if (!(0.0 < shape && shape < INFINITY && 0.0 < scale && scale < INFINITY))
        return NAN;
    if (shape < 1.0) {
        /* g first, in a statement of its own: C leaves the order of *'s operands open */
        double g = standard_gamma(r, shape + 1.0);
        return 1.0 / (g * pow(random_unit(r), 1.0 / shape) / scale);
    }
    return 1.0 / (standard_gamma(r, shape) / scale);
}

/* N(b_k, B_k) draw of a group mean given its variance; NAN unless B_k is finite and > 0. */
static double group_mean(rng_t *r, double sigma2, double n, double ybar, double b0, double inv_B0)
{
    double B = 1.0 / (inv_B0 + n / sigma2);
    double b = B * (n * ybar / sigma2 + b0 * inv_B0);
    if (!(B > 0.0 && B < INFINITY))
        return NAN;
    return b + sqrt(B) * standard_normal(r);
}

/* One chain from xoshiro256++ state `seed`, started at the group means as
 * gibbs.initial_draw does: `burn_in` sweeps dropped, then `kept` sweeps
 * written to the rows mu1, mu2, sigma2_1, sigma2_2 of the row-major (4, kept)
 * block `out`. stats = (n1, n2, ybar1, ybar2, s2y1, s2y2), prior = (b0, B0, c0, C0). */
int run_chain(const uint64_t seed[4], const double stats[6], const double prior[4],
              int64_t burn_in, int64_t kept, double *out)
{
    rng_t rng = {{seed[0], seed[1], seed[2], seed[3]}};
    double n1 = stats[0], n2 = stats[1];
    double ybar1 = stats[2], ybar2 = stats[3];
    double s2y1 = stats[4], s2y2 = stats[5];
    double b0 = prior[0], c0 = prior[2], C0 = prior[3];
    double inv_B0 = 1.0 / prior[1];
    double c1 = c0 + 0.5 * n1;
    double c2 = c0 + 0.5 * n2;
    double mu1 = ybar1, mu2 = ybar2, s2_1, s2_2, r;

    for (int64_t i = -burn_in; i < kept; i++) {
        r = ybar1 - mu1;
        s2_1 = inverse_gamma(&rng, c1, C0 + 0.5 * n1 * (s2y1 + r * r));
        r = ybar2 - mu2;
        s2_2 = inverse_gamma(&rng, c2, C0 + 0.5 * n2 * (s2y2 + r * r));
        if (!(s2_1 > 0.0 && s2_1 < INFINITY && s2_2 > 0.0 && s2_2 < INFINITY))
            return 1;
        mu1 = group_mean(&rng, s2_1, n1, ybar1, b0, inv_B0);
        mu2 = group_mean(&rng, s2_2, n2, ybar2, b0, inv_B0);
        if (!(isfinite(mu1) && isfinite(mu2)))
            return 1;
        if (i >= 0) {
            out[i] = mu1;
            out[kept + i] = mu2;
            out[2 * kept + i] = s2_1;
            out[3 * kept + i] = s2_2;
        }
    }
    return 0;
}

/* n draws of mean + sqrt(variance) * N(0, 1) into out, as n calls of
 * distributions.sample_normal would make them. The stream continues from the
 * xoshiro256++ words in state, which are overwritten with the advanced
 * state. The caller passes only a variance sample_normal accepts (> 0). */
void normals(uint64_t state[4], double mean, double variance, int64_t n, double *out)
{
    rng_t rng = {{state[0], state[1], state[2], state[3]}};
    double sd = sqrt(variance);
    for (int64_t i = 0; i < n; i++)
        out[i] = mean + sd * standard_normal(&rng);
    for (int k = 0; k < 4; k++)
        state[k] = rng.s[k];
}

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/* The leading zero bits of 0 < w < 10^19: 63 less the binary exponent of
 * (double)w, which is one too high where the conversion rounds w up to the
 * next power of two. */
static int leading_zeros(uint64_t w)
{
    double d = (double)w;
    uint64_t bits;
    memcpy(&bits, &d, sizeof bits);
    int top = (int)(bits >> 52) - 1023;
    return 63 - top + (w >> top == 0);
}

/* The high and low words of a * b, from 32-bit halves:
 * a * b = a1 b1 2^64 + (a1 b0 + a0 b1) 2^32 + a0 b0 */
static uint64_t multiply_64(uint64_t a, uint64_t b, uint64_t *low)
{
    uint64_t a0 = a & 0xFFFFFFFF, a1 = a >> 32, b0 = b & 0xFFFFFFFF, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p10 = a1 * b0;
    uint64_t middle = (p00 >> 32) + (p10 & 0xFFFFFFFF) + a0 * b1; /* at most 2^64 - 1 */
    *low = (middle << 32) | (p00 & 0xFFFFFFFF);
    return a1 * b1 + (p10 >> 32) + (middle >> 32);
}

/* The double nearest w * 10^q, ties to even, for 0 < w < 10^19 and q in
 * [POW5_MIN, POW5_MAX], by Eisel-Lemire (Lemire 2021, "Number parsing at a
 * gigabyte per second"), with the second product of Mushtak and Lemire 2023
 * ("Fast number parsing without fallback"), which makes it exact for every
 * such w and q. Returns 0 where that double would overflow. */
static int eisel_lemire(uint64_t w, int64_t q, int negative, double *out)
{
    int zeros = leading_zeros(w);
    w <<= zeros;
    const uint64_t *power = pow5 + 2 * (q - POW5_MIN);
    uint64_t low, high = multiply_64(w, power[0], &low);
    if ((high & 0x1FF) == 0x1FF) { /* the truncation may carry into the 55 bits kept: add the second product */
        uint64_t unused, carry = multiply_64(w, power[1], &unused);
        low += carry;
        high += low < carry;
    }
    int top = (int)(high >> 63);
    int shift = top + 9;
    uint64_t mantissa = high >> shift;
    /* floor(q * log2(10)) + 63, with C99's truncating division floored */
    int64_t exponent = (217706 * q - (q < 0 ? 65535 : 0)) / 65536 + 63 + top - zeros + 1023;
    if (exponent <= 0) { /* subnormal, or zero */
        if (1 - exponent >= 64) {
            mantissa = 0;
        } else {
            mantissa >>= 1 - exponent;
            mantissa = (mantissa + (mantissa & 1)) >> 1;
        }
        exponent = mantissa >= (UINT64_C(1) << 52); /* rounded up to the smallest normal */
    } else {
        /* exactly halfway between two doubles: possible only for q in [-4, 23]; round to even */
        if (low <= 1 && q >= -4 && q <= 23 && (mantissa & 3) == 1 && (mantissa << shift) == high)
            mantissa &= ~UINT64_C(1);
        mantissa = (mantissa + (mantissa & 1)) >> 1;
        if (mantissa >= (UINT64_C(2) << 52)) {
            mantissa = UINT64_C(1) << 52;
            exponent++;
        }
        if (exponent >= 0x7FF)
            return 0;
    }
    uint64_t bits = (mantissa & ((UINT64_C(1) << 52) - 1)) | (uint64_t)exponent << 52
                    | (uint64_t)negative << 63;
    memcpy(out, &bits, sizeof bits);
    return 1;
}

enum { NUMBER_DECLINED = -1, NUMBER_READ = 0, NUMBER_FOR_STRTOD = 1 };

/* Far past any double. read_number() stops adding exponent digits here, so the
 * exponent cannot overflow, and leaves a value whose exponent reaches it to
 * strtod, since a long fraction could bring its capped q back into range. */
#define EXPONENT_CAP 100000

/* Reads s[0..n), a number of the grammar [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? over
 * the ASCII digits d, in one pass. Returns NUMBER_READ with its double in *out
 * where at most 19 significant digits and a decimal exponent in [POW5_MIN,
 * POW5_MAX] let eisel_lemire() take it, NUMBER_FOR_STRTOD for any other value
 * of the grammar (more digits, an exponent out of range or at EXPONENT_CAP,
 * or an overflow), and NUMBER_DECLINED for anything else. */
static int read_number(const char *s, int64_t n, double *out)
{
    int64_t i = 0, digits = 0, significant = 0, q = 0, e = 0;
    uint64_t w = 0; /* wraps past 19 significant digits, which go to strtod */
    int negative = 0;
    if (i < n && (s[i] == '+' || s[i] == '-'))
        negative = s[i++] == '-';
    for (; i < n && is_digit(s[i]); i++, digits++) {
        w = 10 * w + (uint64_t)(s[i] - '0');
        significant += significant > 0 || s[i] != '0';
    }
    if (i < n && s[i] == '.')
        for (i++; i < n && is_digit(s[i]); i++, digits++, q--) {
            w = 10 * w + (uint64_t)(s[i] - '0');
            significant += significant > 0 || s[i] != '0';
        }
    if (digits == 0)
        return NUMBER_DECLINED;
    if (i < n && (s[i] == 'e' || s[i] == 'E')) {
        int e_negative = 0;
        if (++i < n && (s[i] == '+' || s[i] == '-'))
            e_negative = s[i++] == '-';
        if (i == n || !is_digit(s[i]))
            return NUMBER_DECLINED;
        for (; i < n && is_digit(s[i]); i++)
            if (e < EXPONENT_CAP)
                e = 10 * e + (s[i] - '0');
        q += e_negative ? -e : e;
    }
    if (i != n)
        return NUMBER_DECLINED;
    if (significant == 0) {
        *out = negative ? -0.0 : 0.0;
        return NUMBER_READ;
    }
    if (significant > 19 || e >= EXPONENT_CAP || q < POW5_MIN || q > POW5_MAX || !eisel_lemire(w, q, negative, out))
        return NUMBER_FOR_STRTOD;
    return NUMBER_READ;
}

/* The lines of the UTF-8 block text[0..size), each ended by '\n' (the last
 * may end at size instead), as `value,label` rows: value i goes to values[i]
 * and the code of its raw label bytes, in order of first appearance, to
 * codes[i]. labels, of 1 + 2 * max_labels slots (max_labels <= 256), receives
 * the number of distinct raw labels in labels[0], and the start and end
 * offsets of label k's first occurrence in labels[1 + 2k] and labels[2 + 2k].
 * Returns the row count, or -1 to decline the block: a line with other than
 * one comma, longer than `limit` bytes, or with a value outside read_number()'s
 * grammar, not wholly consumed by strtod where read_number() leaves it to
 * strtod (a locale whose decimal point is not '.'), or not finite; or more
 * than max_labels distinct raw labels.
 * values and codes hold room for (size + 1) / 3 rows, as a row takes at least
 * three bytes: a digit, its comma and its '\n'. text[size] must be a NUL,
 * as it is in a Python bytes object, so that strtod stops there at the latest. */
int64_t scan_block(const char *text, int64_t size, int64_t limit, int64_t max_labels,
                   double *values, uint8_t *codes, int64_t *labels)
{
    const char *end = text + size, *line = text;
    int64_t rows = 0, n_labels = 0;
    while (line < end) {
        const char *eol = memchr(line, '\n', (size_t)(end - line));
        if (eol == NULL)
            eol = end;
        if (eol - line > limit)
            return -1;
        const char *comma = memchr(line, ',', (size_t)(eol - line));
        if (comma == NULL || memchr(comma + 1, ',', (size_t)(eol - comma - 1)) != NULL)
            return -1;
        double v;
        int read = read_number(line, comma - line, &v);
        if (read == NUMBER_DECLINED)
            return -1;
        if (read == NUMBER_FOR_STRTOD) {
            char *stop;
            v = strtod(line, &stop);
            if (stop != comma)
                return -1;
        }
        if (!isfinite(v))
            return -1;
        const char *label = comma + 1;
        size_t length = (size_t)(eol - label);
        int64_t k = 0;
        while (k < n_labels && !((size_t)(labels[2 + 2 * k] - labels[1 + 2 * k]) == length
                                 && memcmp(text + labels[1 + 2 * k], label, length) == 0))
            k++;
        if (k == n_labels) {
            if (n_labels == max_labels)
                return -1;
            labels[1 + 2 * k] = label - text;
            labels[2 + 2 * k] = eol - text;
            n_labels++;
        }
        values[rows] = v;
        codes[rows] = (uint8_t)k;
        rows++;
        line = eol + 1;
    }
    labels[0] = n_labels;
    return rows;
}
