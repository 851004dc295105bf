/* Fused lockstep block kernel for the stepwise fleet engines.
 *
 * One call advances every active lane of a `_StepwiseFleet` (the SRW
 * fleet, the E-process fleet, or the V-process fleet) up to T lockstep
 * steps, replacing the ~40 numpy dispatches the pure-python kernel pays
 * per step with one tight C loop per block.
 *
 * The contract is bit-identical replay of the numpy path (and therefore
 * of the per-trial reference walks): the same Mersenne-Twister words are
 * consumed in the same order per lane (CPython's `_randbelow` rejection
 * loop over the lane's buffered word row), candidates are selected in
 * the same incidence order, first-visit tables get the same step
 * stamps, and cover fires at the same instant.  The kernel never
 * generates randomness itself — it only consumes the `_WordBank` rows —
 * so RNG end-state accounting stays in python.
 *
 * Word-row exhaustion: each step is resolved in two passes (draw, then
 * apply) so a lane that runs its row dry mid-draw aborts the whole step
 * with every lane's word pointer restored; the python driver refills
 * that lane's row and re-enters.  Steps consume at least one word per
 * lane, so the re-entry cadence is bounded by the row width.
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

/* Bumped whenever the par[] layout, slot table, or semantics change; the
 * python loader refuses a stale .so instead of mis-reading it. */
#define REPRO_FUSED_ABI 1

/* par[] indices (all int64). */
enum {
    P_WALK = 0,      /* 0 srw, 1 eprocess, 2 vprocess */
    P_BY_EDGES = 1,  /* cover target is edges */
    P_PACKED = 2,    /* regular d<=16: use the 2^d bitmask tables */
    P_TILED = 3,     /* distinct-graph fleet: incidence rows lane-major */
    P_A = 4,         /* active lanes */
    P_T = 5,         /* max lockstep steps this call */
    P_STEP0 = 6,     /* global step count before the first step here */
    P_N = 7,
    P_M = 8,
    P_D = 9,         /* common regular degree; 0 = irregular lanes */
    P_WIDTH = 10,    /* word-bank row width */
    P_FULL = 11,     /* target ids per lane (n or m) */
    P_ALL_V = 12,    /* eprocess: every lane's vertex set complete */
    P_COUNT = 13
};

/* arr[] slot indices (void pointers; unused slots NULL). */
enum {
    S_CUR = 0,       /* i64[A]  rw  current vertex (local id) */
    S_VOFF = 1,      /* i64[A]      lane vertex offset (k*n) */
    S_EOFF = 2,      /* i64[A]      lane edge offset (k*m) */
    S_WORDS = 3,     /* i64[A*width] word-bank rows */
    S_PTR = 4,       /* i64[A]  rw  word-bank row positions */
    S_EIDS = 5,      /* i64         incidence edge ids (padded) */
    S_NBRS = 6,      /* i64         incidence neighbours (padded) */
    S_ROWSTART = 7,  /* i64         CSR row starts (irregular) */
    S_DEGS = 8,      /* i64         degrees (irregular) */
    S_TMOD = 9,      /* i8[2^d]     packed: code -> modulus */
    S_TSH = 10,      /* i8[2^d]     packed: code -> word shift */
    S_TSEL = 11,     /* i8[2^d*d]   packed: (code, r) -> winner slot */
    S_MASKA = 12,    /* u8      rw  srw: visited; e: edge-unvisited; v: vertex-unvisited */
    S_FVA = 13,      /* i64     rw  srw: target first-visits; e: edge fv; v: vertex fv */
    S_CNTA = 14,     /* i64[A]  rw  srw: target counts; e: ne; v: nv */
    S_MASKB = 15,    /* u8      rw  e: vertex-unvisited */
    S_FVB = 16,      /* i64     rw  e: vertex fv; v: edge fv */
    S_CNTB = 17,     /* i64[A]  rw  e: nv; v: ne */
    S_COL = 18,      /* u8[T*A] w   e(record_phases): per-step colours */
    S_VTX = 19,      /* i64[T*A] w  e(record_phases): per-step vertices */
    S_ISB = 20,      /* u8[A]   w   e: last step's blue flags */
    S_COVERED = 21,  /* u8[A]   w   lanes covered at the final step */
    S_OUT = 22,      /* i64[4]  w   0: steps done, 1: all_v, 2: starved lane */
    S_COUNT = 23
};

/* Return status. */
enum {
    ST_DONE = 0,    /* ran all T steps, nobody covered */
    ST_COVERED = 1, /* some lane covered at step out[0]; block ends */
    ST_REFILL = 2,  /* lane out[2] ran its word row dry; refill + re-enter */
    ST_BADWALK = -1,
    ST_NOMEM = -2
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

REPRO_EXPORT int64_t repro_fused_abi(void)
{
    return REPRO_FUSED_ABI;
}

REPRO_EXPORT int64_t repro_fused_block(const int64_t *par, void **arr)
{
    const int64_t walk = par[P_WALK];
    const int64_t by_edges = par[P_BY_EDGES];
    const int64_t packed = par[P_PACKED];
    const int64_t tiled = par[P_TILED];
    const int64_t A = par[P_A];
    const int64_t T = par[P_T];
    const int64_t step0 = par[P_STEP0];
    const int64_t n = par[P_N];
    const int64_t m = par[P_M];
    const int64_t d = par[P_D];
    const int64_t width = par[P_WIDTH];
    const int64_t full = par[P_FULL];
    int64_t all_v = par[P_ALL_V];

    int64_t *cur = (int64_t *)arr[S_CUR];
    const int64_t *voff = (const int64_t *)arr[S_VOFF];
    const int64_t *eoff = (const int64_t *)arr[S_EOFF];
    const int64_t *words = (const int64_t *)arr[S_WORDS];
    int64_t *ptr = (int64_t *)arr[S_PTR];
    const int64_t *eids = (const int64_t *)arr[S_EIDS];
    const int64_t *nbrs = (const int64_t *)arr[S_NBRS];
    const int64_t *rowstart = (const int64_t *)arr[S_ROWSTART];
    const int64_t *degs = (const int64_t *)arr[S_DEGS];
    const signed char *tmod = (const signed char *)arr[S_TMOD];
    const signed char *tsh = (const signed char *)arr[S_TSH];
    const signed char *tsel = (const signed char *)arr[S_TSEL];
    unsigned char *maskA = (unsigned char *)arr[S_MASKA];
    int64_t *fvA = (int64_t *)arr[S_FVA];
    int64_t *cntA = (int64_t *)arr[S_CNTA];
    unsigned char *maskB = (unsigned char *)arr[S_MASKB];
    int64_t *fvB = (int64_t *)arr[S_FVB];
    int64_t *cntB = (int64_t *)arr[S_CNTB];
    unsigned char *col = (unsigned char *)arr[S_COL];
    int64_t *vtx = (int64_t *)arr[S_VTX];
    unsigned char *isb_last = (unsigned char *)arr[S_ISB];
    unsigned char *covered = (unsigned char *)arr[S_COVERED];
    int64_t *out = (int64_t *)arr[S_OUT];

    int64_t t = 0, i, j;
    int64_t lanes_full_v = 0;

    out[0] = 0;
    out[1] = all_v;
    out[2] = -1;

    if (walk < 0 || walk > 2)
        return ST_BADWALK;

    /* scratch: per-lane draw results for the two-pass step */
    int64_t *jsel_s = (int64_t *)malloc((size_t)A * sizeof(int64_t));
    int64_t *save_p = (int64_t *)malloc((size_t)A * sizeof(int64_t));
    unsigned char *isb_s = (unsigned char *)malloc((size_t)A);
    if (!jsel_s || !save_p || !isb_s) {
        free(jsel_s);
        free(save_p);
        free(isb_s);
        return ST_NOMEM;
    }

    /* E-process: how many lanes already have complete vertex sets (the
     * lazily-maintained python flag may trail the truth; recompute). */
    if (walk == 1 && !all_v) {
        for (i = 0; i < A; i++)
            if (cntB[i] == n)
                lanes_full_v++;
        if (lanes_full_v == A)
            all_v = 1;
    }

    for (t = 0; t < T; t++) {
        /* ---- pass 1: one accepted draw + winner slot per lane -------- */
        for (i = 0; i < A; i++) {
            const int64_t c = cur[i];
            const int64_t gc = tiled ? c + voff[i] : c;
            const int64_t base = d ? gc * d : rowstart[gc];
            const int64_t dg = d ? d : degs[gc];
            int64_t q, code = 0;
            int isb = 0;

            save_p[i] = ptr[i];
            if (walk == 0) {
                q = dg;
            } else if (packed) {
                if (walk == 1) {
                    for (j = 0; j < d; j++)
                        if (maskA[eids[base + j] + eoff[i]])
                            code |= (int64_t)1 << j;
                } else {
                    for (j = 0; j < d; j++)
                        if (maskA[nbrs[base + j] + voff[i]])
                            code |= (int64_t)1 << j;
                }
                q = tmod[code];
                isb = code != 0;
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

            /* CPython _randbelow: reject tempered words until one's top
             * bitlen(q) bits are < q. */
            {
                const int shift = 32 - bitlen64(q);
                const int64_t *row = words + (size_t)i * (size_t)width;
                int64_t p = ptr[i], r = 0;
                int ok = 0;
                while (p < width) {
                    const int64_t w = row[p++];
                    r = w >> shift;
                    if (r < q) {
                        ok = 1;
                        break;
                    }
                }
                if (!ok) {
                    /* Row dry mid-step: undo every lane's pointer and let
                     * python refill this lane, then re-enter. */
                    for (j = 0; j <= i; j++)
                        ptr[j] = save_p[j];
                    out[0] = t;
                    out[1] = all_v;
                    out[2] = i;
                    free(jsel_s);
                    free(save_p);
                    free(isb_s);
                    return ST_REFILL;
                }
                ptr[i] = p;

                /* winner slot, in incidence order */
                if (walk == 0) {
                    jsel_s[i] = base + r;
                } else if (packed) {
                    jsel_s[i] = base + tsel[code * d + r];
                } else if (!isb) {
                    jsel_s[i] = base + r;
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
                    jsel_s[i] = base + slot;
                }
            }
            isb_s[i] = (unsigned char)isb;
        }

        /* ---- pass 2: apply moves + bookkeeping ----------------------- */
        {
            const int64_t step_no = step0 + t + 1;
            int any_cov = 0;
            for (i = 0; i < A; i++) {
                const int64_t jsel = jsel_s[i];
                const int64_t nxt = nbrs[jsel];
                if (walk == 0) {
                    const int64_t key =
                        (by_edges ? eids[jsel] + eoff[i] : nxt + voff[i]);
                    cur[i] = nxt;
                    if (!maskA[key]) {
                        maskA[key] = 1;
                        fvA[key] = step_no;
                        if (++cntA[i] == full) {
                            covered[i] = 1;
                            any_cov = 1;
                        }
                    }
                } else if (walk == 1) {
                    const int64_t e = eids[jsel] + eoff[i];
                    if (col) {
                        col[(size_t)t * (size_t)A + (size_t)i] = isb_s[i];
                        vtx[(size_t)t * (size_t)A + (size_t)i] = cur[i];
                    }
                    isb_last[i] = isb_s[i];
                    cur[i] = nxt;
                    if (isb_s[i]) {
                        /* every blue step visits exactly one new edge */
                        maskA[e] = 0;
                        fvA[e] = step_no;
                        if (++cntA[i] == m && by_edges) {
                            covered[i] = 1;
                            any_cov = 1;
                        }
                    }
                    if (!all_v) {
                        const int64_t gv = nxt + voff[i];
                        if (maskB[gv]) {
                            maskB[gv] = 0;
                            fvB[gv] = step_no;
                            if (++cntB[i] == n) {
                                if (!by_edges) {
                                    covered[i] = 1;
                                    any_cov = 1;
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
                            covered[i] = 1;
                            any_cov = 1;
                        }
                    }
                    if (isb_s[i]) {
                        /* every blue step visits exactly one new vertex */
                        const int64_t gv = nxt + voff[i];
                        maskA[gv] = 0;
                        fvA[gv] = step_no;
                        if (++cntA[i] == n && !by_edges) {
                            covered[i] = 1;
                            any_cov = 1;
                        }
                    }
                }
            }
            if (any_cov) {
                out[0] = t + 1;
                out[1] = all_v;
                free(jsel_s);
                free(save_p);
                free(isb_s);
                return ST_COVERED;
            }
        }
    }

    out[0] = T;
    out[1] = all_v;
    free(jsel_s);
    free(save_p);
    free(isb_s);
    return ST_DONE;
}
