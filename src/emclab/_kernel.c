/* Compiled find_matching over bitmask edge families: the kernel contract's
   matching search, with the same DFS as _kernel_py.find_matching, so both
   return the same indices.  _kernel_py keeps its edge sets as index bitsets
   in Python ints; this file keeps them as index arrays.  Vertex v is bit
   v-1 of an edge mask, so n <= 63.  The down-set search has one
   implementation, _kernel_py.downset_max_edges. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdlib.h>

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

#define METHOD(f) #f, (PyCFunction)(void (*)(void))f, METH_VARARGS | METH_KEYWORDS

static PyMethodDef methods[] = {
    {METHOD(find_matching), "find_matching(masks, k, need)\n--\n\n"
     "Indices of `need` pairwise-disjoint edges, or None."},
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
    .m_doc = "Compiled find_matching (contract of _kernel_py).",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModuleDef_Init(&module);
}
