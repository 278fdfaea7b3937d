/* Compiled search kernels over bitmask edge families.

   Same contract as _kernel_py, which this file mirrors step for step, so
   answers, witnesses and node counts are identical.  Vertex v is bit v-1 of
   an edge mask, so n <= 63.  One matching search, find(), runs over indices
   into one mask array: all of them, or the down-set search's closure.  That
   search keeps the successor lists in one flat array (CSR layout). */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned long long u64;

/* More than 64 disjoint nonempty edges cannot fit in 64 bits, so find()
   fails on any larger need exactly as it fails on MAX_NEED + 1. */
#define MAX_NEED 64

/* one step per set bit; portable to any C compiler */
static int popcount64(u64 x)
{
    int c = 0;
    for (; x; x &= x - 1)
        c++;
    return c;
}

/* Indices of `need` pairwise-disjoint edges among avail[0..n_avail), in
   out[0..need): 1 found, 0 none, -1 out of memory.  Deterministic DFS
   branching on the least active vertex; prunes branches where the surviving
   vertices cannot host enough disjoint edges. */
static int find(const u64 *masks, int k, int need, const int *avail, int n_avail, int *out)
{
    u64 acc = 0, v_bit, m;
    int i, j, n_rest, n_sub, rc;
    int *rest, *sub;
    if (need == 0)
        return 1;
    for (i = 0; i < n_avail; i++)
        acc |= masks[avail[i]];
    /* acc == 0 decides only k <= 0, where the descent would never end */
    if (acc == 0 || popcount64(acc) < (long long)need * k)
        return 0;
    v_bit = acc & (~acc + 1); /* least active vertex */
    rest = malloc(2 * (size_t)n_avail * sizeof(int));
    if (rest == NULL)
        return -1;
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
        n_sub = 0;
        for (j = 0; j < n_rest; j++)
            if (!(masks[rest[j]] & m))
                sub[n_sub++] = rest[j];
        rc = find(masks, k, need - 1, sub, n_sub, out + 1);
        if (rc != 0) {
            if (rc == 1)
                out[0] = avail[i];
            free(rest);
            return rc;
        }
    }
    /* least vertex left unmatched */
    rc = find(masks, k, need, rest, n_rest, out);
    free(rest);
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
    rc = find(masks, k, (int)need, avail, (int)n, out);
    if (rc < 0)
        PyErr_NoMemory();
    else if (rc == 0)
        res = Py_NewRef(Py_None);
    else
        res = int_list(out, need);
    free(masks);
    return res;
}

static PyObject *greedy_matching(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"masks", NULL};
    PyObject *seq, *res;
    Py_ssize_t i, n, n_out = 0;
    u64 used = 0, *masks;
    int *out;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:greedy_matching", kwlist, &seq)
        || (masks = read_masks(seq, &n)) == NULL)
        return NULL;
    out = (int *)(masks + n);
    for (i = 0; i < n; i++)
        if (!(masks[i] & used)) {
            out[n_out++] = (int)i;
            used |= masks[i];
        }
    res = int_list(out, n_out);
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
    int *hits;              /* `need` slots per search depth */
    int m, k, need, best;
    long long budget, nodes;
    int exhausted;
} Downset;

/* Copies the successor lists into d: the successors of j are
   d->succ[d->off[j] .. d->off[j + 1]).  The caller frees both arrays. */
static int read_succs(PyObject *seq, Py_ssize_t m, Downset *d)
{
    PyObject *fast = PySequence_Fast(seq, "succs must be a sequence"), *row = NULL;
    Py_ssize_t i, j, len, cap = 0, nnz = 0;
    int *grown, rc = -1;
    long v;
    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) != m) {
        PyErr_SetString(PyExc_ValueError, "succs needs one successor list per mask");
        goto done;
    }
    if ((d->off = malloc((m + 1) * sizeof(int))) == NULL)
        goto nomem;
    d->off[0] = 0;
    for (j = 0; j < m; j++) {
        row = PySequence_Fast(PySequence_Fast_GET_ITEM(fast, j), "succs entries must be sequences");
        if (row == NULL)
            goto done;
        len = PySequence_Fast_GET_SIZE(row);
        if (nnz + len > cap) {
            cap = 2 * (nnz + len);
            if ((grown = realloc(d->succ, cap * sizeof(int))) == NULL)
                goto nomem;
            d->succ = grown;
        }
        for (i = 0; i < len; i++) {
            v = PyLong_AsLong(PySequence_Fast_GET_ITEM(row, i));
            if (v == -1 && PyErr_Occurred())
                goto done;
            if (v < 0 || v >= m) {
                PyErr_SetString(PyExc_IndexError, "successor index out of range");
                goto done;
            }
            d->succ[nnz++] = (int)v;
        }
        Py_CLEAR(row);
        d->off[j + 1] = (int)nnz;
    }
    rc = 0;
nomem:
    if (rc < 0)
        PyErr_NoMemory();
done:
    Py_XDECREF(row);
    Py_DECREF(fast);
    return rc;
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
        d->status[j < 0 ? -j - 1 : j] = 0;
    }
}

/* Every feasible down-set must exclude (with its whole up-set) at least one
   edge of any (s+1)-matching found inside the current candidate closure.
   Each level excludes one more element, so depth <= m.  0 done, -1 out of
   memory. */
static int search(Downset *d, int depth)
{
    int *branch = d->hits + (size_t)depth * d->need;
    int n_closure = 0, n_branch = 0, i, pos, mark, ok, rc;
    if (++d->nodes > d->budget) {
        d->exhausted = 0;
        return 0;
    }
    for (i = 0; i < d->m; i++)
        if (d->status[i] != 2)
            d->closure[n_closure++] = i;
    if (n_closure <= d->best)
        return 0;
    rc = find(d->masks, d->k, d->need, d->closure, n_closure, branch);
    if (rc <= 0) {
        if (rc == 0) {
            d->best = n_closure;
            memcpy(d->witness, d->closure, n_closure * sizeof(int));
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
    static char *kwlist[] = {"masks", "succs", "s", "budget", NULL};
    PyObject *masks_obj, *succs_obj, *witness, *res = NULL;
    Downset d = {.best = -1, .exhausted = 1};
    int s, rc = -1;
    Py_ssize_t m;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOiL:downset_max_edges", kwlist,
                                     &masks_obj, &succs_obj, &s, &d.budget))
        return NULL;
    if ((d.masks = read_masks(masks_obj, &m)) == NULL || read_succs(succs_obj, m, &d) < 0)
        goto done;
    d.m = (int)m;
    d.k = m ? popcount64(d.masks[0]) : 1;
    d.need = s < 0 ? 0 : s >= MAX_NEED ? MAX_NEED + 1 : s + 1;
    d.status = calloc(m + 1, 1);
    /* one block: trail, closure and witness (m each), stack, hits */
    d.trail = malloc((3 * m + d.off[m] + 1 + (m + 1) * d.need) * sizeof(int));
    if (d.status != NULL && d.trail != NULL) {
        d.closure = d.trail + m;
        d.witness = d.closure + m;
        d.stack = d.witness + m;
        d.hits = d.stack + d.off[m] + 1;
        rc = search(&d, 0);
    }
    if (d.best < 0)
        d.best = 0;
    if (rc < 0)
        PyErr_NoMemory();
    else if ((witness = int_list(d.witness, d.best)) != NULL)
        res = Py_BuildValue("(iNOL)", d.best, witness, d.exhausted ? Py_True : Py_False, d.nodes);
done:
    free(d.masks);
    free(d.off);
    free(d.succ);
    free(d.status);
    free(d.trail);
    return res;
}

#define METHOD(f) #f, (PyCFunction)(void (*)(void))f, METH_VARARGS | METH_KEYWORDS

static PyMethodDef methods[] = {
    {METHOD(find_matching), "find_matching(masks, k, need)\n--\n\n"
     "Indices of `need` pairwise-disjoint edges, or None."},
    {METHOD(greedy_matching), "greedy_matching(masks)\n--\n\n"
     "Lexicographic greedy maximal matching; returns chosen indices."},
    {METHOD(downset_max_edges), "downset_max_edges(masks, succs, s, budget)\n--\n\n"
     "Maximize family size over dominance down-sets with matching number <= s.\n\n"
     "Returns (best, witness_indices, exhausted, nodes)."},
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
    .m_doc = "Compiled search kernels over bitmask edge families (contract of _kernel_py).",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModuleDef_Init(&module);
}
