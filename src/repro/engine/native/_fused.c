/* Native kernels: the fused lockstep block for the stepwise fleet
 * engines, and one Steger–Wormald pass for random regular graphs.
 *
 * One call advances every active lane of a `_StepwiseFleet` (the SRW
 * fleet, the E-process fleet, or the V-process fleet) up to T lockstep
 * steps, replacing the ~40 numpy dispatches the pure-python kernel pays
 * per step with one tight C loop per block.  Lanes retire inside the
 * call: a lane that covers records its cover step and stops drawing, so
 * its generator row, position and word count stay at its cover instant,
 * while the others keep stepping until T steps have run or no lane is
 * live.  The driver then syncs and compacts the retired lanes once per
 * block, not once per cover instant.
 *
 * The contract is bit-identical replay of the numpy path (and therefore
 * of the per-trial reference walks): the same Mersenne-Twister words are
 * consumed in the same order per lane (CPython's `_randbelow` rejection
 * loop), candidates are selected in the same incidence order, first-visit
 * tables get the same step stamps, and each lane covers at the same
 * instant as its reference walk.
 * Every E-/V-process row, regular or not, takes the cumulative-rank
 * path below.  The numpy path's 2^d bitmask tables pay off only there,
 * where they save dispatches; in C the row scan costs the same.
 *
 * The kernel writes only what the driver reads back: positions,
 * visitation masks, first-visit tables, counts, generator states and the
 * per-lane cover steps.  Nothing records per-step colours: every blue
 * E-process step visits exactly one new edge, so the edge first-visit
 * table already names the blue steps.
 *
 * The randomness is each trial's own generator, transplanted: python
 * hands every lane's `random.Random` state in as a row laid out exactly
 * like `rng.getstate()[1]` (624 key words plus the read position), the
 * kernel runs CPython's MT19937 on that row in place — twist, tempering
 * and all — and python writes the advanced row back with `setstate`.
 * Nothing is buffered, so a block never has to stop for more words.
 *
 * `repro_sw_regular` (bottom of this file) draws the same way from one
 * state row per build, replaying
 * `repro.graphs.random_regular._steger_wormald_attempt` draw for draw.
 *
 * Loaded via ctypes (no Python API on purpose: the .so stays loadable
 * whether or not it matches the running interpreter's ABI); built by the
 * optional setuptools Extension in setup.py.
 */

#include <stdint.h>
#include <stdlib.h>

#if defined(_WIN32)
#define REPRO_EXPORT __declspec(dllexport)
#else
#define REPRO_EXPORT __attribute__((visibility("default")))
#endif

/* Bumped whenever the par[] layout, slot table, or semantics change (of
 * either entry point); the python loader refuses a stale .so instead of
 * mis-reading it. */
#define REPRO_FUSED_ABI 6

/* par[] indices (all int64). */
enum {
    P_WALK = 0,      /* 0 srw, 1 eprocess, 2 vprocess */
    P_BY_EDGES = 1,  /* cover target is edges */
    P_TILED = 2,     /* distinct-graph fleet: incidence rows lane-major */
    P_A = 3,         /* active lanes */
    P_T = 4,         /* max lockstep steps this call */
    P_STEP0 = 5,     /* global step count before the first step here */
    P_N = 6,
    P_M = 7,
    P_D = 8,         /* common regular degree; 0 = irregular lanes */
    P_FULL = 9,      /* target ids per lane (n or m) */
    P_ALL_V = 10,    /* eprocess: every lane's vertex set complete */
    P_COUNT = 11
};

/* arr[] slot indices (void pointers; unused slots NULL). */
enum {
    S_CUR = 0,       /* i64[A]  rw  current vertex (local id) */
    S_VOFF = 1,      /* i64[A]      lane vertex offset (k*n) */
    S_EOFF = 2,      /* i64[A]      lane edge offset (k*m) */
    S_MT = 3,        /* u32[A*625] rw per-lane generator states */
    S_DRAWN = 4,     /* i64[A]  rw  words drawn per lane */
    S_EIDS = 5,      /* i64         incidence edge ids (padded) */
    S_NBRS = 6,      /* i64         incidence neighbours (padded) */
    S_ROWSTART = 7,  /* i64         CSR row starts (irregular) */
    S_DEGS = 8,      /* i64         degrees (irregular) */
    S_MASKA = 9,     /* u8      rw  srw: visited; e: edge-unvisited; v: vertex-unvisited */
    S_FVA = 10,      /* i64     rw  srw: target first-visits; e: edge fv; v: vertex fv */
    S_CNTA = 11,     /* i64[A]  rw  srw: target counts; e: ne; v: nv */
    S_MASKB = 12,    /* u8      rw  e: vertex-unvisited */
    S_FVB = 13,      /* i64     rw  e: vertex fv; v: edge fv */
    S_CNTB = 14,     /* i64[A]  rw  e: nv; v: ne */
    S_COVERED = 15,  /* i64[A]  rw  cover step per lane; 0 = live (all 0 on entry) */
    S_OUT = 16,      /* i64[2]  w   0: steps done, 1: all_v */
    S_COUNT = 17
};

/* Return status. */
enum {
    ST_DONE = 0,    /* ran all T steps, no lane retired */
    ST_COVERED = 1, /* some lanes retired: read their cover steps; out[0]
                     * is T, or fewer if no lane was left live */
    ST_BADWALK = -1
};

static int bitlen64(int64_t q)
{
#if defined(__GNUC__) || defined(__clang__)
    return q ? 64 - __builtin_clzll((unsigned long long)q) : 0;
#else
    int b = 0;
    while (q) {
        b++;
        q >>= 1;
    }
    return b;
#endif
}

/* ---- Mersenne Twister ---------------------------------------------------
 *
 * MT19937 exactly as CPython's `random.Random` (`genrand_uint32`) and
 * numpy's `MT19937.random_raw` run it.  A state is MT_WORDS uint32s: the
 * MT_N key words, then the read position in 0..MT_N (MT_N: twist before
 * the next word) — the layout of `random.Random.getstate()[1]`.
 */

#define MT_N 624
#define MT_M 397
#define MT_WORDS (MT_N + 1)
#define MT_UPPER 0x80000000U
#define MT_LOWER 0x7fffffffU

static uint32_t mt_mix(uint32_t hi, uint32_t lo, uint32_t far)
{
    const uint32_t y = (hi & MT_UPPER) | (lo & MT_LOWER);
    return far ^ (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);
}

static void mt_twist(uint32_t *mt)
{
    int k;
    for (k = 0; k < MT_N - MT_M; k++)
        mt[k] = mt_mix(mt[k], mt[k + 1], mt[k + MT_M]);
    for (; k < MT_N - 1; k++)
        mt[k] = mt_mix(mt[k], mt[k + 1], mt[k + MT_M - MT_N]);
    mt[MT_N - 1] = mt_mix(mt[MT_N - 1], mt[0], mt[MT_M - 1]);
}

static uint32_t mt_next(uint32_t *mt)
{
    uint32_t y;
    if (mt[MT_N] >= MT_N) {
        mt_twist(mt);
        mt[MT_N] = 0;
    }
    y = mt[mt[MT_N]++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    return y;
}

/* CPython `_randbelow(q)` for 0 < q < 2^32: reject tempered words until
 * one's top bitlen(q) bits are < q.  Adds the words drawn to *drawn. */
static int64_t mt_randbelow(uint32_t *mt, int64_t q, int64_t *drawn)
{
    const int shift = 32 - bitlen64(q);
    int64_t r;
    do {
        r = (int64_t)(mt_next(mt) >> shift);
        ++*drawn;
    } while (r >= q);
    return r;
}

REPRO_EXPORT int64_t repro_fused_abi(void)
{
    return REPRO_FUSED_ABI;
}

REPRO_EXPORT int64_t repro_fused_block(const int64_t *par, void **arr)
{
    const int64_t walk = par[P_WALK];
    const int64_t by_edges = par[P_BY_EDGES];
    const int64_t tiled = par[P_TILED];
    const int64_t A = par[P_A];
    const int64_t T = par[P_T];
    const int64_t step0 = par[P_STEP0];
    const int64_t n = par[P_N];
    const int64_t m = par[P_M];
    const int64_t d = par[P_D];
    const int64_t full = par[P_FULL];
    int64_t all_v = par[P_ALL_V];

    int64_t *cur = (int64_t *)arr[S_CUR];
    const int64_t *voff = (const int64_t *)arr[S_VOFF];
    const int64_t *eoff = (const int64_t *)arr[S_EOFF];
    uint32_t *mts = (uint32_t *)arr[S_MT];
    int64_t *drawn = (int64_t *)arr[S_DRAWN];
    const int64_t *eids = (const int64_t *)arr[S_EIDS];
    const int64_t *nbrs = (const int64_t *)arr[S_NBRS];
    const int64_t *rowstart = (const int64_t *)arr[S_ROWSTART];
    const int64_t *degs = (const int64_t *)arr[S_DEGS];
    unsigned char *maskA = (unsigned char *)arr[S_MASKA];
    int64_t *fvA = (int64_t *)arr[S_FVA];
    int64_t *cntA = (int64_t *)arr[S_CNTA];
    unsigned char *maskB = (unsigned char *)arr[S_MASKB];
    int64_t *fvB = (int64_t *)arr[S_FVB];
    int64_t *cntB = (int64_t *)arr[S_CNTB];
    int64_t *covered = (int64_t *)arr[S_COVERED];
    int64_t *out = (int64_t *)arr[S_OUT];

    int64_t t, i, j;
    int64_t lanes_full_v = 0;
    int64_t live = A;

    out[0] = 0;
    out[1] = all_v;

    if (walk < 0 || walk > 2)
        return ST_BADWALK;

    /* E-process: how many lanes already have complete vertex sets (the
     * lazily-maintained python flag may trail the truth; recompute).  A
     * retired lane keeps its count: one that covered the edges has
     * visited every vertex too, so retirement never holds all_v back. */
    if (walk == 1 && !all_v) {
        for (i = 0; i < A; i++)
            if (cntB[i] == n)
                lanes_full_v++;
        if (lanes_full_v == A)
            all_v = 1;
    }

    /* Lanes own disjoint visitation ranges (offsets k*n / k*m), so each
     * lane's draw and move complete before the next lane's start: the
     * step is the same as drawing for every lane first.  A retired lane
     * (covered[i] != 0) is skipped: it draws no more words. */
    for (t = 0; t < T && live; t++) {
        const int64_t step_no = step0 + t + 1;
        for (i = 0; i < A; i++) {
            int64_t c, gc, base, dg, q, r, jsel, nxt;
            int isb = 0;

            if (covered[i])
                continue;
            c = cur[i];
            gc = tiled ? c + voff[i] : c;
            base = d ? gc * d : rowstart[gc];
            dg = d ? d : degs[gc];

            /* ---- the draw: modulus, one accepted word, winner slot ----
             * E-/V-process: the modulus is the row's count of unvisited
             * edges / neighbours (the degree on a red step), and a blue
             * winner is the r-th candidate in incidence order. */
            if (walk == 0) {
                q = dg;
            } else {
                int64_t qb = 0;
                if (walk == 1) {
                    for (j = 0; j < dg; j++)
                        qb += maskA[eids[base + j] + eoff[i]] ? 1 : 0;
                } else {
                    for (j = 0; j < dg; j++)
                        qb += maskA[nbrs[base + j] + voff[i]] ? 1 : 0;
                }
                isb = qb > 0;
                q = isb ? qb : dg;
            }

            r = mt_randbelow(mts + (size_t)i * MT_WORDS, q, drawn + i);

            /* winner slot, in incidence order */
            if (walk == 0 || !isb) {
                jsel = base + r;
            } else {
                int64_t cnt = 0, slot = 0;
                if (walk == 1) {
                    for (j = 0; j < dg; j++)
                        if (maskA[eids[base + j] + eoff[i]] && cnt++ == r) {
                            slot = j;
                            break;
                        }
                } else {
                    for (j = 0; j < dg; j++)
                        if (maskA[nbrs[base + j] + voff[i]] && cnt++ == r) {
                            slot = j;
                            break;
                        }
                }
                jsel = base + slot;
            }

            /* ---- the move and its bookkeeping ------------------------- */
            nxt = nbrs[jsel];
            if (walk == 0) {
                const int64_t key =
                    (by_edges ? eids[jsel] + eoff[i] : nxt + voff[i]);
                cur[i] = nxt;
                if (!maskA[key]) {
                    maskA[key] = 1;
                    fvA[key] = step_no;
                    if (++cntA[i] == full) {
                        covered[i] = step_no;
                        live--;
                    }
                }
            } else if (walk == 1) {
                const int64_t e = eids[jsel] + eoff[i];
                cur[i] = nxt;
                if (isb) {
                    /* every blue step visits exactly one new edge (so the
                     * edge first-visit table records the colour sequence) */
                    maskA[e] = 0;
                    fvA[e] = step_no;
                    if (++cntA[i] == m && by_edges) {
                        covered[i] = step_no;
                        live--;
                    }
                }
                if (!all_v) {
                    const int64_t gv = nxt + voff[i];
                    if (maskB[gv]) {
                        maskB[gv] = 0;
                        fvB[gv] = step_no;
                        if (++cntB[i] == n) {
                            if (!by_edges) {
                                covered[i] = step_no;
                                live--;
                            }
                            if (++lanes_full_v == A)
                                all_v = 1;
                        }
                    }
                }
            } else {
                const int64_t e = eids[jsel] + eoff[i];
                cur[i] = nxt;
                /* the traversed edge is recorded either colour */
                if (fvB[e] < 0) {
                    fvB[e] = step_no;
                    if (++cntB[i] == m && by_edges) {
                        covered[i] = step_no;
                        live--;
                    }
                }
                if (isb) {
                    /* every blue step visits exactly one new vertex */
                    const int64_t gv = nxt + voff[i];
                    maskA[gv] = 0;
                    fvA[gv] = step_no;
                    if (++cntA[i] == n && !by_edges) {
                        covered[i] = step_no;
                        live--;
                    }
                }
            }
        }
    }

    out[0] = t;
    out[1] = all_v;
    return live < A ? ST_COVERED : ST_DONE;
}


/* ---- Steger–Wormald random regular graphs ------------------------------
 *
 * One attempt of the incremental pairing in
 * `repro.graphs.random_regular._steger_wormald_attempt`, state for state:
 * the stub pool with its swap-deletion, the per-vertex position lists
 * (pop from the end, fix the moved stub's entry in place), the 200-try
 * loop of two pool draws, and the sorted exhaustive fallback over the
 * vertices with free stubs.  Every `rng.randrange(q)` is CPython's
 * `_randbelow(q)` on the build's generator state row, so the same words
 * are consumed in the same order as the python pass.  Every modulus must
 * fit in 32 bits (python gates on n*r and n*(n-1)/2), so one word is one
 * draw.
 *
 * Each call is one fresh attempt; on a dead end python calls again with
 * the advanced state row.  On success the kernel also writes the CSR
 * incidence arrays in `Graph.incidence()` order (edge id order, first
 * endpoint's entry before the second's) and counts the connected
 * components with a union-find.
 */

/* par[] indices (int64). */
enum {
    SW_N = 0,
    SW_R = 1,
    SW_PAR_COUNT = 2
};

/* arr[] slot indices. */
enum {
    SW_MT = 0,      /* u32[625] rw generator state */
    SW_COMPS = 1,   /* i64[1]   w  connected components */
    SW_POOL = 2,    /* i64[n*r] rw stub pool (vertex per stub) */
    SW_POS = 3,     /* i64[n*r] rw pos[v*r + j], j < free[v]: v's pool slots */
    SW_FREE = 4,    /* i64[n]   rw free stubs per vertex */
    SW_ADJ = 5,     /* i64[n*r] rw adj[v*r + j], j < r - free[v] */
    SW_EDGES = 6,   /* i64[n*r] rw placed edges as (u, v) pairs */
    SW_OFFSETS = 7, /* i64[n+1] w  CSR row starts */
    SW_EIDS = 8,    /* i64[n*r] w  CSR edge ids */
    SW_NBRS = 9,    /* i64[n*r] w  CSR neighbours */
    SW_SLOT_COUNT = 10
};

/* Return status. */
enum {
    SW_DONE = 0,    /* graph complete; CSR + components written */
    SW_DEADEND = 1, /* only forbidden pairs remain: python restarts */
    SW_NOMEM = -2
};

static int sw_adjacent(const int64_t *adj, const int64_t *freec, int64_t r,
                       int64_t u, int64_t v)
{
    const int64_t *row = adj + u * r;
    const int64_t deg = r - freec[u];
    int64_t j;
    for (j = 0; j < deg; j++)
        if (row[j] == v)
            return 1;
    return 0;
}

/* `remove_stub`: pop x's last pool slot, move the pool's last stub into
 * it and fix that stub's entry in its owner's position list. */
static void sw_remove_stub(int64_t *pool, int64_t *pos, int64_t *freec,
                           int64_t r, int64_t *len, int64_t x)
{
    const int64_t idx = pos[x * r + --freec[x]];
    const int64_t last = --*len;
    if (idx != last) {
        const int64_t lv = pool[last];
        int64_t *plist = pos + lv * r;
        int64_t j = 0;
        pool[idx] = lv;
        while (plist[j] != last)
            j++;
        plist[j] = idx;
    }
}

static int64_t sw_find(int64_t *parent, int64_t v)
{
    while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
    }
    return v;
}

REPRO_EXPORT int64_t repro_sw_regular(const int64_t *par, void **arr)
{
    const int64_t n = par[SW_N];
    const int64_t r = par[SW_R];
    uint32_t *mt = (uint32_t *)arr[SW_MT];
    int64_t *comps_out = (int64_t *)arr[SW_COMPS];
    int64_t *pool = (int64_t *)arr[SW_POOL];
    int64_t *pos = (int64_t *)arr[SW_POS];
    int64_t *freec = (int64_t *)arr[SW_FREE];
    int64_t *adj = (int64_t *)arr[SW_ADJ];
    int64_t *edges = (int64_t *)arr[SW_EDGES];
    int64_t *offsets = (int64_t *)arr[SW_OFFSETS];
    int64_t *eids = (int64_t *)arr[SW_EIDS];
    int64_t *nbrs = (int64_t *)arr[SW_NBRS];
    int64_t len = 0, placed = 0, drawn = 0, v, j, e;

    for (v = 0; v < n; v++) {
        freec[v] = r;
        for (j = 0; j < r; j++) {
            pos[v * r + j] = len;
            pool[len++] = v;
        }
    }

    while (len > 0) {
        int64_t u = -1, w = -1, t;
        int found = 0;
        for (t = 0; t < 200; t++) {
            u = pool[mt_randbelow(mt, len, &drawn)];
            w = pool[mt_randbelow(mt, len, &drawn)];
            if (u == w || sw_adjacent(adj, freec, r, u, w))
                continue;
            found = 1;
            break;
        }
        if (!found) {
            /* Exhaustive fallback: pairs (x, y), x < y, of vertices with
             * free stubs, not yet adjacent, in sorted order; none left is
             * a dead end. */
            int64_t *rem = (int64_t *)malloc((size_t)n * sizeof(int64_t));
            int64_t nrem = 0, count = 0, k, a, b;
            if (!rem)
                return SW_NOMEM;
            for (v = 0; v < n; v++)
                if (freec[v] > 0)
                    rem[nrem++] = v;
            for (a = 0; a < nrem; a++)
                for (b = a + 1; b < nrem; b++)
                    count += !sw_adjacent(adj, freec, r, rem[a], rem[b]);
            if (count == 0) {
                free(rem);
                return SW_DEADEND;
            }
            k = mt_randbelow(mt, count, &drawn);
            u = -1;
            for (a = 0; a < nrem && u < 0; a++)
                for (b = a + 1; b < nrem; b++)
                    if (!sw_adjacent(adj, freec, r, rem[a], rem[b]) && k-- == 0) {
                        u = rem[a];
                        w = rem[b];
                        break;
                    }
            free(rem);
        }
        /* place(u, w) */
        edges[2 * placed] = u;
        edges[2 * placed + 1] = w;
        placed++;
        adj[u * r + r - freec[u]] = w;
        adj[w * r + r - freec[w]] = u;
        sw_remove_stub(pool, pos, freec, r, &len, u);
        sw_remove_stub(pool, pos, freec, r, &len, w);
    }

    /* CSR in incidence() order; free[] (all zero now) is the fill cursor. */
    for (v = 0; v <= n; v++)
        offsets[v] = v * r;
    for (e = 0; e < placed; e++) {
        const int64_t a = edges[2 * e], b = edges[2 * e + 1];
        j = a * r + freec[a]++;
        eids[j] = e;
        nbrs[j] = b;
        j = b * r + freec[b]++;
        eids[j] = e;
        nbrs[j] = a;
    }
    /* Components by union-find; pos[] (spent) holds the parents. */
    {
        int64_t comps = n;
        for (v = 0; v < n; v++)
            pos[v] = v;
        for (e = 0; e < placed; e++) {
            const int64_t a = sw_find(pos, edges[2 * e]);
            const int64_t b = sw_find(pos, edges[2 * e + 1]);
            if (a != b) {
                pos[a] = b;
                comps--;
            }
        }
        *comps_out = comps;
    }
    return SW_DONE;
}
