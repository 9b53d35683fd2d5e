/* The counting walk of generate._count_run in C, over an explicit stack.
 *
 * a[0 .. k-1] holds the 1-based positions of the 1s of the current node.
 * Frame i (4 ints from f + 4 * i) is the bubble run of the node with i 1s
 * on the path from the root: the next q to try, the end of its flip prefix,
 * and rest and second of ops._run.  The walk stops after about `budget`
 * steps and returns 0 with its state left in the caller's buffers, so the
 * caller can resume it; it returns 1 when the tree is done.  *k is the
 * number of 1s of the current node, k0 the root's, and *total the count so
 * far, which fits 64 bits for n < 64.
 */
#include <stdint.h>

int pn_count(int n, int k0, int *a, int *f, int *k, uint64_t *total,
             uint64_t budget)
{
    int kk = *k;
    uint64_t sum = *total;
    int *fr = f + 4 * kk;
    for (; budget; budget--) {
        if (fr[0] == 0) {
            /* Enter the run of the node a[0 .. kk-1]: ops._run. */
            int r = a[kk - 1], rest = 0, second = kk > 2 ? a[1] : 0, end;
            for (int j = 2; 2 * j <= kk; j++)
                if (a[j] + a[kk - j] > rest)
                    rest = a[j] + a[kk - j];
            if (rest > n + 1)
                end = r;
            else
                end = second ? n + 2 - second : (n + 3) / 2;
            fr[0] = r;
            fr[1] = end > r ? end : r;
            fr[2] = rest;
            fr[3] = second;
            sum += (uint64_t)(n - r + 1);
        }
        int q = fr[0];
        if (q >= fr[1]) {
            /* The run is done: resume its parent's. */
            fr[0] = 0;
            if (--kk < k0) {
                *k = kk;
                *total = sum;
                return 1;
            }
            fr -= 4;
            continue;
        }
        fr[0] = q + 1;
        int pair = (fr[3] ? fr[3] : q) + q;
        int phi = (fr[2] > pair ? fr[2] : pair) - 1;
        if (phi == n) {
            sum++;
        } else {
            a[kk - 1] = q;
            a[kk++] = phi;
            fr += 4;
        }
    }
    *k = kk;
    *total = sum;
    return 0;
}
