/* A driver for _kernel.c that tests/test_kernel.py builds with the address
 * and undefined-behaviour sanitizers, so that a read or write past a buffer
 * the Python side allocates is reported.
 *
 * Each line of stdin is one case, "n lex wsize cap osize": the word length,
 * the order (1 = lex, 0 = gray) and the sizes that _kernel.buffers gives at
 * that n.  A case lists 110^(n-2) in that order, with the run base and
 * output buffers allocated at exactly those sizes, until the listing ends
 * or about 256 KiB of lines, and checks that each call writes at most cap
 * bytes of whole lines.  It then counts the roots 110^(n-2) and 1^n in one
 * batch, for at most 64 calls.  The positions and frames are n and
 * 5 (n + 1) ints, as _kernel's state() allocates them.  Both resume after
 * budgets of 1 to 7 steps and after larger ones.
 *
 * Prints "<cases> cases" and exits 0 when every case passes, else prints
 * the case that failed and exits 1.
 */
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

int pn_count(int n, int m, const int *roots, const int *lens, int *i, int *a,
             int *f, int *k, uint64_t *parts, uint64_t budget);
int pn_list(int n, const int *root, int k0, int lex, int *a, int *f, int *k,
            char *w, char *out, size_t cap, size_t *len, uint64_t budget);

static uint64_t budget(int call)
{
    return call % 8 ? (uint64_t)(call % 8) : 1 << 12;
}

/* Whether out[0 .. len-1] is whole lines of n symbols 0 or 1. */
static int whole_lines(const char *out, size_t len, int n)
{
    if (len % (size_t)(n + 1))
        return 0;
    for (size_t i = 0; i < len; i++)
        if (i % (size_t)(n + 1) == (size_t)n ? out[i] != '\n'
                                             : out[i] != '0' && out[i] != '1')
            return 0;
    return 1;
}

static int list(int n, int lex, size_t wsize, size_t cap, size_t osize)
{
    int root[2] = {1, 2}, k = 0, done = 0, *a = malloc(n * sizeof *a),
        *f = calloc(5 * (n + 1), sizeof *f);
    char *w = malloc(wsize), *out = malloc(osize);
    size_t used = 0, total = 0;
    for (int call = 1; !done && total < (1 << 18); call++) {
        done = pn_list(n, root, 2, lex, a, f, &k, w, out, cap, &used, budget(call));
        if (done < 0 || used > cap || !whole_lines(out, used, n))
            break;
        total += used;
        used = 0;
    }
    free(a);
    free(f);
    free(w);
    free(out);
    return done >= 0 && used == 0;
}

static int count(int n)
{
    int lens[2] = {2, n}, *roots = malloc((2 + n) * sizeof *roots), i = 0, k = 0,
        done = 0, *a = malloc(n * sizeof *a), *f = calloc(5 * (n + 1), sizeof *f);
    uint64_t parts[2];
    roots[0] = 1;
    roots[1] = 2;
    for (int j = 0; j < n; j++)
        roots[2 + j] = j + 1;
    for (int call = 1; !done && call <= 64; call++)
        done = pn_count(n, 2, roots, lens, &i, a, f, &k, parts, budget(call));
    free(roots);
    free(a);
    free(f);
    return done >= 0;
}

int main(void)
{
    int n, lex, cases = 0;
    size_t wsize, cap, osize;
    while (scanf("%d %d %zu %zu %zu", &n, &lex, &wsize, &cap, &osize) == 5) {
        if (!list(n, lex, wsize, cap, osize) || !count(n)) {
            printf("failed: %d %d %zu %zu %zu\n", n, lex, wsize, cap, osize);
            return 1;
        }
        cases++;
    }
    printf("%d cases\n", cases);
    return 0;
}
