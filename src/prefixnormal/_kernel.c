/* The walk of generate._walk in C, over an explicit stack: one body that
 * either writes the words of the tree as lines or only counts them.
 *
 * a[0 .. k-1] holds the 1-based positions of the 1s of the current node.
 * Frame i (5 ints from f + 5 * i) is the bubble run of the node with i 1s
 * on the path from the root: the position q of the rightmost 1 of the node
 * the walk has climbed down to (0 before the run is entered), rest and
 * second of ops._run, the run's first position r, and (counter only) the
 * part of rest that the run's flip children share.  Both modes climb each
 * run downward, as _walk does.
 *
 * The lister starts a run at q = n + 1 and visits every node of it; a node
 * with min_flip above n is a run tail node.  w holds the run's base, the
 * current node with its rightmost 1 cleared, and each word is written as
 * "word\n" at out + *len.  A step writes at most two lines, and the lister
 * returns before a step when the cap bytes of out cannot hold them (so cap
 * must hold two, or it returns 0 with nothing written).  A line copies w
 * in whole blocks of BLOCK bytes, so it reads w and writes out up to
 * BLOCK - 1 bytes past its n bytes of word: w must have room for
 * n + BLOCK bytes and out for cap + BLOCK (_kernel.buffers sizes them).
 *
 * The counter writes nothing and counts a run when it creates it: its
 * n - r + 1 nodes and the flip children of those that are leaves at n
 * (top).  The flip child at q of a node with k 1s has its 1s at
 * a[0 .. k-2], q and phi, so its rest is the larger of the fifth int of
 * the frame, over the pairs that do not move with q, and its own pair
 * a[2] + q (2q when k = 3, none when k = 2); its second is a[1] (q when
 * k = 2).  So each child of a run is counted in O(1), and it gets a frame,
 * started at its last node with a flip child below n, only if there is
 * one.  Only the root of a count is entered from q = 0.
 *
 * pn_list walks one root of k0 positions.  pn_count counts m roots one
 * after another: root i has lens[i] positions, concatenated in roots, and
 * *i is the root being counted.  Both check a root as they enter it and
 * copy it into a, the lister its run base into w too, and return -1 there
 * if it is not a node of the tree.
 * parts[j] gets this call's count of root j alone, for every root j the
 * call reached: at most 4n per step, so it fits 64 bits for any int n
 * and a budget below 2^30.
 *
 * *k is the number of 1s of the current node, 0 before the root (in
 * pn_count root *i) is entered.  Both stop after about `budget` steps in
 * all, inside a root or not.  They return 0 with their state left in the
 * caller's buffers, so the caller can resume (and add up the counts), and
 * 1 when every tree is done.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define BLOCK 16

/* The line of run base w with 1s at q and j (j == q adds none).  A copy
 * of constant size compiles to a load and a store, where memcpy(p, w, n)
 * is a call that branches on n. */
static inline char *line(char *p, const char *w, int n, int q, int j)
{
    for (int i = 0; i < n; i += BLOCK)
        memcpy(p + i, w + i, BLOCK);
    p[q - 1] = '1';
    p[j - 1] = '1';
    p[n] = '\n';
    return p + n + 1;
}

/* Add the run from r of a node with that rest and second (ops._run) to
 * *sum, with the flip children of its nodes that are leaves at n.  The
 * nodes r <= q < leaf have a flip child below n, and leaf <= q < end one
 * at n; returns leaf. */
static inline int top(int n, int r, int rest, int second, uint64_t *sum)
{
    /* min_flip at q is max(rest, second + q) - 1, or 2q - 1 with no second. */
    int end = rest > n + 1 ? r : second ? n + 2 - second : (n + 3) / 2;
    int leaf = rest > n ? r : second ? n + 1 - second : (n + 2) / 2;
    if (end < r)
        end = r;
    if (leaf < r)
        leaf = r;
    *sum += (uint64_t)(n - r + 1) + (uint64_t)(end - leaf);
    return leaf;
}

/* The part of rest that the flip children of the run of a[0 .. k-1]
 * share: their pairs a[j] + a[k+1-j], j >= 3, which do not move with q. */
static inline int shared(const int *a, int k)
{
    int s = 0;
    for (int j = 3; 2 * j <= k + 1; j++)
        if (a[j] + a[k + 1 - j] > s)
            s = a[j] + a[k + 1 - j];
    return s;
}

static inline __attribute__((always_inline)) int
walk(const int list, int n, int k0, int *a, int *f, int *k, uint64_t *left,
     uint64_t *total, int lex, char *w, char *out, size_t cap, size_t *len)
{
    int kk = *k, *fr = f + 5 * kk, done = 0;
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
                fr[4] = shared(a, kk);
                q = top(n, r, rest, second, &sum);
            }
        }
        if (q == fr[3]) {
            /* The run is done: resume its parent's at the flip node. */
            fr[0] = 0;
            if (--kk < k0) {
                done = 1;
                break;
            }
            fr -= 5;
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
        if (!list) {
            /* phi < n, as q < leaf: count the flip child's run now, and
             * give it a frame only if it has a flip child below n. */
            int second = fr[2] ? fr[2] : q, rest = fr[4];
            if (kk > 2) {
                int own = (kk > 3 ? a[2] : q) + q;
                if (own > rest)
                    rest = own;
            }
            int leaf = top(n, phi, rest, second, &sum);
            if (leaf > phi) {
                a[kk - 1] = q;
                a[kk++] = phi;
                fr += 5;
                fr[0] = leaf;
                fr[1] = rest;
                fr[2] = second;
                fr[3] = phi;
                fr[4] = shared(a, kk);
            }
            continue;
        }
        if (lex || phi > n)
            used = line(out + used, w, n, q, q) - out;
        if (phi < n) {
            w[q - 1] = '1';
            a[kk - 1] = q;
            a[kk++] = phi;
            fr += 5;
        } else if (phi == n) {
            /* A flip child at n is a single leaf. */
            used = line(out + used, w, n, q, n) - out;
            if (!lex)
                used = line(out + used, w, n, q, q) - out;
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

/* Copy root p into a and, with w, its run base into w, if it is a node the
 * walk ends on that a can hold: 1 = p[0] < ... < p[k0-1] <= n, k0 >= 2
 * (a flip child's new 1 is then above its others).  Else returns 0. */
static int enter(const int *p, int k0, int n, int *a, int *k, char *w)
{
    if (k0 < 2 || k0 > n || p[0] != 1 || p[k0 - 1] > n)
        return 0;
    for (int j = 1; j < k0; j++)
        if (p[j] <= p[j - 1])
            return 0;
    memcpy(a, p, k0 * sizeof *a);
    *k = k0;
    if (w) {
        memset(w, '0', n);
        for (int j = 0; j < k0 - 1; j++)
            w[p[j] - 1] = '1';
    }
    return 1;
}

int pn_count(int n, int m, const int *roots, const int *lens, int *i, int *a,
             int *f, int *k, uint64_t *parts, uint64_t budget)
{
    const int *root = roots;
    for (int j = 0; j < *i; j++)
        root += lens[j];
    for (; *i < m; root += lens[(*i)++]) {
        int k0 = lens[*i];
        if (*k == 0 && !enter(root, k0, n, a, k, NULL))
            return -1;
        if (!walk(0, n, k0, a, f, k, &budget, parts + *i, 0, NULL, NULL, 0, NULL))
            return 0;
        *k = 0;
    }
    return 1;
}

int pn_list(int n, const int *root, int k0, int lex, int *a, int *f, int *k,
            char *w, char *out, size_t cap, size_t *len, uint64_t budget)
{
    if (*k == 0 && !enter(root, k0, n, a, k, w))
        return -1;
    return walk(1, n, k0, a, f, k, &budget, NULL, lex, w, out, cap, len);
}
