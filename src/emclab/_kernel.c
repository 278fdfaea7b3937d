/* Compiled search kernels over bitmask edge families: the kernel contract's
   two searches, find_matching and downset_max_edges.

   Same contract as _kernel_py and the same DFS: both branch on the same
   vertices and edges in the same order, so answers, witnesses and node
   counts are identical.  _kernel_py keeps its edge sets as index bitsets in
   Python ints; this file keeps them as index arrays.  Vertex v is bit v-1
   of an edge mask, so n <= 63.  One matching search, find(), runs over
   indices into one mask array: all of them, or the part of the down-set
   search's closure inside [k(s+1)], where it skips partners that provably
   fail (see search()).  That search takes (n, k) and builds its own
   candidates, the k-subsets of [n] in itertools.combinations order, with
   their dominance covers as successor lists in one flat array (CSR layout;
   see build_candidates()). */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdlib.h>

typedef unsigned long long u64;

/* More than 64 disjoint nonempty edges cannot fit in 64 bits, so find()
   fails on any larger need exactly as it fails on MAX_NEED + 1. */
#define MAX_NEED 64

/* The cap on C(n,k) of the down-set search, kernel.MAX_SEARCH_CANDIDATES;
   kernel.py says what it bounds. */
#define MAX_SEARCH_CANDIDATES (1 << 15)

/* one step per set bit; portable to any C compiler */
static int popcount64(u64 x)
{
    int c = 0;
    for (; x; x &= x - 1)
        c++;
    return c;
}

/* 1 when a <= b in the dominance order, for masks with as many vertices:
   the p-th least vertex of a is at most that of b, for each p */
static int dominated(u64 a, u64 b)
{
    for (; b; a &= a - 1, b &= b - 1)
        if ((a & (~a + 1)) > (b & (~b + 1)))
            return 0;
    return 1;
}

/* Indices of `need` pairwise-disjoint edges among avail[0..n_avail), in
   out[0..need): 1 found, 0 none, -1 out of memory.  Deterministic DFS
   branching on the least active vertex; prunes branches where the surviving
   vertices cannot host enough disjoint edges.  down: 1 when search() calls
   it, where avail is a down-set of the k-subsets of need*k vertices; then
   it skips each partner dominated by one that failed, which fails too (see
   search()), and returns the same answer. */
static int find(const u64 *masks, int k, int need, const int *avail, int n_avail, int down,
                int *out)
{
    u64 acc = 0, v_bit, m, *failed;
    int i, j, n_rest, n_sub, n_failed = 0, rc;
    int *rest, *sub;
    if (need == 0)
        return 1;
    for (i = 0; i < n_avail; i++)
        acc |= masks[avail[i]];
    /* acc == 0 decides only k <= 0, where the descent would never end */
    if (acc == 0 || popcount64(acc) < (long long)need * k)
        return 0;
    v_bit = acc & (~acc + 1); /* least active vertex */
    failed = malloc((size_t)n_avail * (sizeof(u64) + 2 * sizeof(int)));
    if (failed == NULL)
        return -1;
    rest = (int *)(failed + n_avail);
    sub = rest + n_avail;
    n_rest = 0;
    for (i = 0; i < n_avail; i++)
        if (!(masks[avail[i]] & v_bit))
            rest[n_rest++] = avail[i];
    /* try high-index partners first: pairing a scarce low vertex with the
       greediest partner wastes the fewest other scarce vertices */
    for (i = n_avail - 1; i >= 0; i--) {
        m = masks[avail[i]];
        if (!(m & v_bit))
            continue;
        for (j = 0; j < n_failed && !dominated(m, failed[j]); j++)
            ;
        if (j < n_failed)
            continue;
        n_sub = 0;
        for (j = 0; j < n_rest; j++)
            if (!(masks[rest[j]] & m))
                sub[n_sub++] = rest[j];
        rc = find(masks, k, need - 1, sub, n_sub, down, out + 1);
        if (rc != 0) {
            if (rc == 1)
                out[0] = avail[i];
            free(failed);
            return rc;
        }
        if (down)
            failed[n_failed++] = m;
    }
    /* least vertex left unmatched */
    rc = find(masks, k, need, rest, n_rest, down, out);
    free(failed);
    return rc;
}

/* 0 with an exception set on anything that is not an int in [0, 2**64) */
static int to_u64(PyObject *obj, u64 *out)
{
    *out = PyLong_AsUnsignedLongLong(obj);
    return *out != (u64)-1 || !PyErr_Occurred();
}

/* The masks of a sequence as a malloc'd array, followed by room for as
   many int indices. */
static u64 *read_masks(PyObject *seq, Py_ssize_t *len)
{
    PyObject *fast = PySequence_Fast(seq, "masks must be a sequence");
    u64 *masks;
    Py_ssize_t i, n;
    if (fast == NULL)
        return NULL;
    n = *len = PySequence_Fast_GET_SIZE(fast);
    masks = malloc((n + 1) * (sizeof(u64) + sizeof(int)));
    if (masks == NULL)
        PyErr_NoMemory();
    for (i = 0; masks != NULL && i < n; i++)
        if (!to_u64(PySequence_Fast_GET_ITEM(fast, i), &masks[i])) {
            free(masks);
            masks = NULL;
        }
    Py_DECREF(fast);
    return masks;
}

static PyObject *int_list(const int *a, Py_ssize_t n)
{
    PyObject *list = PyList_New(n), *v;
    Py_ssize_t i;
    if (list == NULL)
        return NULL;
    for (i = 0; i < n; i++) {
        v = PyLong_FromLong(a[i]);
        if (v == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, v);
    }
    return list;
}

static PyObject *find_matching(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"masks", "k", "need", NULL};
    PyObject *seq, *res = NULL;
    int k, rc, out[MAX_NEED + 1], *avail;
    long long need;
    Py_ssize_t i, n;
    u64 *masks;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OiL:find_matching", kwlist, &seq, &k, &need))
        return NULL;
    if (need <= 0)
        return PyList_New(0);
    if (need > MAX_NEED)
        need = MAX_NEED + 1;
    if ((masks = read_masks(seq, &n)) == NULL)
        return NULL;
    avail = (int *)(masks + n);
    for (i = 0; i < n; i++)
        avail[i] = (int)i;
    rc = find(masks, k, (int)need, avail, (int)n, 0, out);
    if (rc < 0)
        PyErr_NoMemory();
    else if (rc == 0)
        res = Py_NewRef(Py_None);
    else
        res = int_list(out, need);
    free(masks);
    return res;
}

typedef struct {
    u64 *masks;
    int *off, *succ;        /* successor lists, CSR */
    char *status;           /* 0 undecided, 1 included, 2 excluded */
    int *trail, n_trail;    /* j excluded, or -j-1 included */
    int *stack;             /* exclude's cascade: at most 1 + off[m] entries */
    int *closure, *witness;
    int *inside, n_inside;  /* the indices search() hands find() from */
    int *hits;              /* `need` slots per search depth */
    int m, k, need;
    int excluded;           /* entries of status that are 2 */
    int best, n_witness;    /* n_witness stays 0 until best beats `lower` */
    long long budget, nodes;
    int exhausted;
} Downset;

/* C(a, b), 0 <= b <= a, or a value past the cap: C(a-b+i, i) never falls
   as i grows, so stopping past the cap keeps every product small. */
static long long binom(int a, int b)
{
    long long c = 1;
    int i;
    for (i = 1; i <= b && c <= MAX_SEARCH_CANDIDATES; i++)
        c = c * (a - b + i) / i;
    return c;
}

/* The k-subsets of [n] in lex order, the order of itertools.combinations,
   into d->masks, and their dominance covers into d->off and d->succ: the
   successors of j are d->succ[d->off[j] .. d->off[j + 1]).  A cover moves
   one vertex v up to v+1, where v+1 is not in the set; if v is the p-th
   least vertex of the set (from 0), that raises the lex rank by
   C(n-v-1, k-p-1), so every successor index exceeds its predecessor's.
   a[] holds the current set as 0-based vertices. */
static void build_candidates(Downset *d, int n)
{
    int a[64], i, p, q, nnz = 0, k = d->k;
    for (p = 0; p < k; p++)
        a[p] = p;
    for (i = 0; i < d->m; i++) {
        d->masks[i] = 0;
        d->off[i] = nnz;
        for (p = 0; p < k; p++) {
            d->masks[i] |= 1ULL << a[p];
            if (a[p] + 1 < n && (p == k - 1 || a[p + 1] > a[p] + 1))
                d->succ[nnz++] = i + (int)binom(n - a[p] - 2, k - p - 1);
        }
        /* the next set: raise the last vertex that can rise, and pack the
           ones after it right above it */
        for (p = k - 1; p >= 0 && a[p] == n - k + p; p--)
            ;
        if (p >= 0)
            for (a[p]++, q = p + 1; q < k; q++)
                a[q] = a[q - 1] + 1;
    }
    d->off[d->m] = nnz;
}

/* cascade over the up-set; fails on an already-included element */
static int exclude(Downset *d, int idx)
{
    int top = 0, j, p;
    d->stack[top++] = idx;
    while (top) {
        j = d->stack[--top];
        if (d->status[j] == 2)
            continue;
        if (d->status[j] == 1)
            return 0;
        d->status[j] = 2;
        d->trail[d->n_trail++] = j;
        d->excluded++;
        for (p = d->off[j]; p < d->off[j + 1]; p++)
            d->stack[top++] = d->succ[p];
    }
    return 1;
}

static int include(Downset *d, int idx)
{
    if (d->status[idx] == 2)
        return 0;
    if (d->status[idx] == 0) {
        d->status[idx] = 1;
        d->trail[d->n_trail++] = -idx - 1;
    }
    return 1;
}

static void undo(Downset *d, int mark)
{
    int j;
    while (d->n_trail > mark) {
        j = d->trail[--d->n_trail];
        if (j < 0) {
            d->status[-j - 1] = 0;
        } else {
            d->status[j] = 0;
            d->excluded--;
        }
    }
}

/* Every feasible down-set must exclude (with its whole up-set) at least one
   edge of any (s+1)-matching found inside the current candidate closure.
   A closure no larger than d->best, which starts at the caller's `lower`,
   cannot improve on it.  Each level excludes one more element, so
   depth <= m.  0 done, -1 out of memory.

   find() sees only the closure's masks inside [k(s+1)], d->inside.  Lemma:
   a down-set of the dominance order on the k-subsets of [n] with s+1
   pairwise disjoint edges has s+1 such edges inside [k(s+1)].  Proof: map
   the matching's k(s+1) vertices in order onto [k(s+1)]; each vertex moves
   down, so each image edge is dominated by its edge and lies in the
   down-set.  The candidates are all the k-subsets of [n] and the successor
   lists their dominance covers, so every closure is such a down-set.  A
   closure with no matching there has none at all, so its size and witness
   are the whole closure, every index not excluded.

   So find() runs on a down-set of the k-subsets of need*k free vertices,
   [k(s+1)] less the partners chosen above it, and three facts hold there
   (kernel.py).  Count prune: an edge A holding u but not a free w < u
   dominates A - u + w, so the active vertices are an initial segment of
   the free ones.  No fallback: need disjoint k-sets on need*k vertices
   cover the least one, v.  Dominated partners: if partners j <= i in
   dominance, the map of free - j onto free - i in order moves each vertex
   down, so it takes a matching on free - j to one on free - i, and when i
   fails, j fails.  find() uses only the third with down = 1, the one that
   measured faster here; _kernel_py uses all three. */
static int search(Downset *d, int depth)
{
    int *branch = d->hits + (size_t)depth * d->need;
    int n_closure = 0, n_branch = 0, i, pos, mark, ok, rc;
    if (++d->nodes > d->budget) {
        d->exhausted = 0;
        return 0;
    }
    if (d->m - d->excluded <= d->best)
        return 0;
    for (i = 0; i < d->n_inside; i++)
        if (d->status[d->inside[i]] != 2)
            d->closure[n_closure++] = d->inside[i];
    rc = find(d->masks, d->k, d->need, d->closure, n_closure, 1, branch);
    if (rc <= 0) {
        if (rc == 0) {
            d->n_witness = 0;
            for (i = 0; i < d->m; i++)
                if (d->status[i] != 2)
                    d->witness[d->n_witness++] = i;
            d->best = d->n_witness;
        }
        return rc;
    }
    for (i = 0; i < d->need; i++)
        if (d->status[branch[i]] != 1)
            branch[n_branch++] = branch[i];
    /* n_branch == 0: an (s+1)-matching is already forced in */
    for (pos = 0; pos < n_branch; pos++) {
        mark = d->n_trail;
        ok = exclude(d, branch[pos]);
        for (i = 0; ok && i < pos; i++)
            ok = include(d, branch[i]);
        if (ok && search(d, depth + 1) < 0)
            return -1;
        undo(d, mark);
        if (!d->exhausted)
            return 0;
    }
    return 0;
}

static PyObject *downset_max_edges(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "k", "s", "budget", "lower", NULL};
    PyObject *witness, *res = NULL;
    Downset d = {.exhausted = 1};
    int n, s, i, rc = -1;
    long long m;
    size_t n_succ;
    u64 below = ~0ULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iiiLi:downset_max_edges", kwlist,
                                     &n, &d.k, &s, &d.budget, &d.best))
        return NULL;
    if (!(1 <= d.k && d.k <= n && n <= 63))
        return PyErr_Format(PyExc_ValueError, "need 1 <= k <= n <= 63, got n=%d, k=%d", n, d.k);
    if ((m = binom(n, d.k)) > MAX_SEARCH_CANDIDATES)
        return PyErr_Format(PyExc_ValueError, "C(%d,%d) is past the cap of %d candidate k-sets",
                            n, d.k, MAX_SEARCH_CANDIDATES);
    d.m = (int)m;
    d.need = s < 0 ? 0 : s >= MAX_NEED ? MAX_NEED + 1 : s + 1;
    n_succ = (size_t)m * (d.k < n - d.k ? d.k : n - d.k); /* at most min(k, n-k) covers each */
    /* one zeroed block: masks; off, succ, trail, closure, witness, inside,
       stack and hits; status */
    d.masks = calloc(1, m * sizeof(u64) + (6 * m + 2 * n_succ + 2 + (m + 1) * d.need) * sizeof(int)
                        + m + 1);
    if (d.masks != NULL) {
        d.off = (int *)(d.masks + m);
        d.succ = d.off + m + 1;
        d.trail = d.succ + n_succ;
        d.closure = d.trail + m;
        d.witness = d.closure + m;
        d.inside = d.witness + m;
        d.stack = d.inside + m;
        d.hits = d.stack + n_succ + 1;
        d.status = (char *)(d.hits + (m + 1) * d.need);
        build_candidates(&d, n);
        /* inside: the masks below bit k(s+1); every mask when s < 0 or
           k(s+1) >= n */
        if (d.need > 0 && d.k * d.need < n)
            below = (1ULL << (d.k * d.need)) - 1;
        for (i = 0; i < d.m; i++)
            if (!(d.masks[i] & ~below))
                d.inside[d.n_inside++] = i;
        rc = search(&d, 0);
    }
    if (rc < 0)
        PyErr_NoMemory();
    else if ((witness = int_list(d.witness, d.n_witness)) != NULL)
        res = Py_BuildValue("(iNOL)", d.best, witness, d.exhausted ? Py_True : Py_False, d.nodes);
    free(d.masks);
    return res;
}

#define METHOD(f) #f, (PyCFunction)(void (*)(void))f, METH_VARARGS | METH_KEYWORDS

static PyMethodDef methods[] = {
    {METHOD(find_matching), "find_matching(masks, k, need)\n--\n\n"
     "Indices of `need` pairwise-disjoint edges, or None."},
    {METHOD(downset_max_edges), "downset_max_edges(n, k, s, budget, lower)\n--\n\n"
     "Maximize family size over down-sets of the dominance order on the k-subsets\n"
     "of [n] with matching number <= s, counting only families larger than\n"
     "`lower`, the size of a feasible family the caller already holds.\n"
     "Candidate i is the i-th k-subset of [n] in itertools.combinations order.\n\n"
     "Returns (best, witness_indices, exhausted, nodes); best >= lower, and the\n"
     "witness is [] when no family larger than `lower` was found."},
    {NULL, NULL, 0, NULL},
};

static int exec_module(PyObject *mod)
{
    return PyModule_AddStringConstant(mod, "IMPL", "c");
}

/* multi-phase init (PEP 489): only the import system puts it in sys.modules */
static PyModuleDef_Slot slots[] = {{Py_mod_exec, (void *)exec_module}, {0, NULL}};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Compiled find_matching and downset_max_edges (contract of _kernel_py).",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModuleDef_Init(&module);
}
