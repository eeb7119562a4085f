/* Compiled Gibbs chain for mixtt.gibbs.run_chain.
 *
 * run_chain() repeats, operation for operation, the Python sweep in
 * gibbs.py and the variates in distributions.py: xoshiro256++ words,
 * Box-Muller normals, and Marsaglia-Tsang gammas with the shape < 1 boost,
 * with every float expression written in the same order. Built without
 * FMA contraction (-ffp-contract=off) and calling the same libm as the
 * interpreter, it therefore yields bit-identical draws.
 *
 * Wherever the Python sweep would raise (a shape or scale that is not finite
 * and > 0, a variance <= 0, a log of a non-positive number, a division by
 * zero) or carry a non-finite value, the kernel stops and returns 1; the
 * caller then reruns the chain in Python, which reports the error or
 * returns its own draws. It returns 0 once every kept draw is written.
 */
#include <math.h>
#include <stdint.h>

#define TWO_PI 6.283185307179586 /* 2.0 * math.pi */
#define U53 0x1p-53

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

static double standard_normal(rng_t *r)
{
    double u1 = random_unit(r);
    double u2 = random_unit(r);
    return sqrt(-2.0 * log(u1)) * cos(TWO_PI * u2);
}

/* Gamma(shape, 1) for shape >= 1 into *out; 0 on success, 1 to give up. */
static int standard_gamma(rng_t *r, double shape, double *out)
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
        if (u < 1.0 - 0.0331 * x2 * x2) {
            *out = d * v;
            return 0;
        }
        if (!(v > 0.0))
            return 1;
        if (log(u) < 0.5 * x2 + d * (1.0 - v + log(v))) {
            *out = d * v;
            return 0;
        }
    }
}

/* IG(shape, scale) into *out; 0 on success, 1 to give up. */
static int inverse_gamma(rng_t *r, double shape, double scale, double *out)
{
    double g, den;
    if (!(0.0 < shape && shape < INFINITY && 0.0 < scale && scale < INFINITY))
        return 1;
    if (shape < 1.0) {
        if (standard_gamma(r, shape + 1.0, &g))
            return 1;
        den = g * pow(random_unit(r), 1.0 / shape) / scale;
    } else {
        if (standard_gamma(r, shape, &g))
            return 1;
        den = g / scale;
    }
    if (!(den > 0.0 && den < INFINITY))
        return 1;
    *out = 1.0 / den;
    return !(*out > 0.0 && *out < INFINITY);
}

/* N(b_k, B_k) draw of a group mean given its variance; 0 on success, 1 to give up. */
static int group_mean(rng_t *r, double sigma2, double n, double ybar,
                      double b0, double inv_B0, double *out)
{
    double B = 1.0 / (inv_B0 + n / sigma2);
    double b = B * (n * ybar / sigma2 + b0 * inv_B0);
    if (!(B > 0.0 && B < INFINITY))
        return 1;
    *out = b + sqrt(B) * standard_normal(r);
    return !isfinite(*out);
}

/* One chain from xoshiro256++ state `seed`, started at the group means as
 * gibbs.initial_draw does: `burn_in` sweeps dropped, then `kept` sweeps
 * written to the four arrays. stats = (n1, n2, ybar1, ybar2, s2y1, s2y2)
 * and prior = (b0, B0, c0, C0). */
int run_chain(const uint64_t seed[4], const double stats[6], const double prior[4],
              int64_t burn_in, int64_t kept,
              double *mu1_out, double *mu2_out, double *s2_1_out, double *s2_2_out)
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
        if (inverse_gamma(&rng, c1, C0 + 0.5 * n1 * (s2y1 + r * r), &s2_1))
            return 1;
        r = ybar2 - mu2;
        if (inverse_gamma(&rng, c2, C0 + 0.5 * n2 * (s2y2 + r * r), &s2_2))
            return 1;
        if (group_mean(&rng, s2_1, n1, ybar1, b0, inv_B0, &mu1))
            return 1;
        if (group_mean(&rng, s2_2, n2, ybar2, b0, inv_B0, &mu2))
            return 1;
        if (i >= 0) {
            mu1_out[i] = mu1;
            mu2_out[i] = mu2;
            s2_1_out[i] = s2_1;
            s2_2_out[i] = s2_2;
        }
    }
    return 0;
}
