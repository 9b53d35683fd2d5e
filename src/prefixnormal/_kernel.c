/* The walk of generate._walk in C, over an explicit stack: one body that
 * either writes the words of the tree as lines or only counts them.
 *
 * a[0 .. k-1] holds the 1-based positions of the 1s of the current node.
 * Frame i (4 ints from f + 4 * i) is the bubble run of the node with i 1s
 * on the path from the root: the position q of the rightmost 1 of the node
 * the walk has climbed down to (0 before the run is entered), rest and
 * second of ops._run, and the run's first position r.  Both modes climb
 * each run downward, as _walk does.
 *
 * The lister starts a run at q = n + 1 and visits every node of it; a node
 * with min_flip above n is a run tail node.  w holds the run's base, the
 * current node with its rightmost 1 cleared, and each word is written as
 * "word\n" at out + *len.  A step writes at most two lines, and the lister
 * returns before a step when out cannot hold them.  The counter starts a
 * run at its end instead, after adding the run's n - r + 1 nodes, and
 * writes nothing.
 *
 * pn_list walks one root with k0 1s.  pn_count counts m roots one after
 * another: root i has lens[i] positions, concatenated in roots, and *i is
 * the root being counted.  It copies a root into a when it enters it.
 * parts[j] gets this call's count of root j alone, for every root j the
 * call reached: at most n + 1 per step, so it fits 64 bits for any int n
 * and a budget below 2^32.
 *
 * *k is the number of 1s of the current node (0 in pn_count before root
 * *i is entered).  Both stop after about `budget` steps in all, inside a
 * root or not.  They return 0 with their state left in the caller's
 * buffers, so the caller can resume (and add up the counts), and 1 when
 * every tree is done.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* The line of run base w with 1s at q and j (j == q adds none). */
static inline char *line(char *p, const char *w, int n, int q, int j)
{
    memcpy(p, w, n);
    p[q - 1] = '1';
    p[j - 1] = '1';
    p[n] = '\n';
    return p + n + 1;
}

static inline __attribute__((always_inline)) int
walk(const int list, int n, int k0, int *a, int *f, int *k, uint64_t *left,
     uint64_t *total, int lex, char *w, char *out, size_t cap, size_t *len)
{
    int kk = *k, *fr = f + 4 * kk, done = 0;
    uint64_t sum = 0, budget = *left;
    size_t used = list ? *len : 0, room = 2 * (size_t)(n + 1);
    for (; budget; budget--) {
        if (list && cap - used < room)
            break;
        int q = fr[0];
        if (q == 0) {
            /* Enter the run of the node a[0 .. kk-1]: ops._run. */
            int r = a[kk - 1], rest = 0, second = kk > 2 ? a[1] : 0;
            for (int j = 2; 2 * j <= kk; j++)
                if (a[j] + a[kk - j] > rest)
                    rest = a[j] + a[kk - j];
            fr[1] = rest;
            fr[2] = second;
            fr[3] = r;
            if (list) {
                q = n + 1;
            } else {
                sum += (uint64_t)(n - r + 1);
                if (rest > n + 1)
                    q = r;
                else
                    q = second ? n + 2 - second : (n + 3) / 2;
                if (q < r)
                    q = r;
            }
        }
        if (q == fr[3]) {
            /* The run is done: resume its parent's at the flip node. */
            fr[0] = 0;
            if (--kk < k0) {
                done = 1;
                break;
            }
            fr -= 4;
            if (list) {
                q = fr[0];
                if (!lex)
                    used = line(out + used, w, n, q, q) - out;
                w[q - 1] = '0';
            }
            continue;
        }
        fr[0] = --q;
        int pair = (fr[2] ? fr[2] : q) + q;
        int phi = (fr[1] > pair ? fr[1] : pair) - 1;
        if (list && (lex || phi > n))
            used = line(out + used, w, n, q, q) - out;
        if (phi < n) {
            if (list)
                w[q - 1] = '1';
            a[kk - 1] = q;
            a[kk++] = phi;
            fr += 4;
        } else if (phi == n) {
            /* A flip child at n is a single leaf. */
            if (list) {
                used = line(out + used, w, n, q, n) - out;
                if (!lex)
                    used = line(out + used, w, n, q, q) - out;
            } else {
                sum++;
            }
        }
    }
    *k = kk;
    *left = budget;
    if (list)
        *len = used;
    else
        *total = sum;
    return done;
}

int pn_count(int n, int m, const int *roots, const int *lens, int *i, int *a,
             int *f, int *k, uint64_t *parts, uint64_t budget)
{
    const int *root = roots;
    for (int j = 0; j < *i; j++)
        root += lens[j];
    for (; *i < m; root += lens[(*i)++]) {
        int k0 = lens[*i];
        if (*k == 0) {
            memcpy(a, root, k0 * sizeof *a);
            *k = k0;
        }
        if (!walk(0, n, k0, a, f, k, &budget, parts + *i, 0, NULL, NULL, 0, NULL))
            return 0;
        *k = 0;
    }
    return 1;
}

int pn_list(int n, int k0, int lex, int *a, int *f, int *k, char *w,
            char *out, size_t cap, size_t *len, uint64_t budget)
{
    return walk(1, n, k0, a, f, k, &budget, NULL, lex, w, out, cap, len);
}
