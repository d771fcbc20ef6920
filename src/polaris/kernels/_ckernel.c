/* Compiled backend for the hot geometry kernels.

   Mirrors _pure.py expression by expression (same operation order, same
   literals).  setup.py builds it with float contraction and the sin/cos
   builtins disabled, so every result is bit-identical to the pure
   backend. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define TWO_PI 6.283185307179586

/* exit codes returned by integrate_cell, as in _pure.py */
enum { INSIDE, EXIT_R_PLUS, EXIT_R_MINUS, EXIT_TH_PLUS, EXIT_TH_MINUS };

typedef struct {
    double r_lo, r_hi, th_lo, span;
    double u[8]; /* u0r, u0t, u1r, u1t, u2r, u2t, u3r, u3t */
} Cell;

static int
eval(const Cell *c, double x, double y, double r_eps, int clamp, double *vx, double *vy)
{
    double r = sqrt(x * x + y * y);
    double th = atan2(y, x);

    double dr = c->r_hi - c->r_lo;
    double a = (r - c->r_lo) / dr;

    double rel = fmod(th - c->th_lo, TWO_PI);
    if (rel < 0.0)
        rel += TWO_PI;
    double b = rel / c->span;
    if (clamp) {
        if (a < 0.0)
            a = 0.0;
        else if (a > 1.0)
            a = 1.0;
        if (b < 0.0)
            b = 0.0;
        else if (b > 1.0)
            b = 1.0;
    }

    double w0 = (1.0 - a) * (1.0 - b);
    double w1 = a * (1.0 - b);
    double w2 = a * b;
    double w3 = (1.0 - a) * b;
    double ur = w0 * c->u[0] + w1 * c->u[2] + w2 * c->u[4] + w3 * c->u[6];
    double ut = w0 * c->u[1] + w1 * c->u[3] + w2 * c->u[5] + w3 * c->u[7];

    double m = r;
    if (m < r_eps)
        m = r_eps;
    if (dr == 0.0 || c->span == 0.0 || m == 0.0) { /* where Python's float division raises */
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return -1;
    }
    double tang = r * ut / m;

    double ct = cos(th);
    double st = sin(th);
    *vx = ur * ct - tang * st;
    *vy = ur * st + tang * ct;
    return 0;
}

static int
classify(const Cell *c, double x, double y)
{
    double r = sqrt(x * x + y * y);
    if (r > c->r_hi)
        return EXIT_R_PLUS;
    if (r < c->r_lo)
        return EXIT_R_MINUS;
    if (c->span < TWO_PI - 1e-12) {
        double th = atan2(y, x);
        double rel = fmod(th - c->th_lo, TWO_PI);
        if (rel < 0.0)
            rel += TWO_PI;
        if (rel > c->span) {
            double excess = rel - c->span;
            double gap = TWO_PI - c->span;
            if (excess <= gap * 0.5)
                return EXIT_TH_PLUS;
            return EXIT_TH_MINUS;
        }
    }
    return INSIDE;
}

static PyObject *
integrate(const Cell *c, double x, double y, double dt, long long max_steps, double r_eps)
{
    double vx, vy;
    long long steps = 0;
    int code = INSIDE;
    while (steps < max_steps) {
        if (eval(c, x, y, r_eps, 1, &vx, &vy) < 0)
            return NULL;
        x = x + dt * vx;
        y = y + dt * vy;
        steps += 1;
        code = classify(c, x, y);
        if (code != INSIDE)
            break;
    }
    return Py_BuildValue("(iLdd)", code, steps, x, y);
}

/* Arguments are parsed as Python arithmetic converts them; u is any
   sequence of 8 numbers and each start point any sequence of 2. */
#define CELL_U "dddd(dddddddd)"
#define CELL_U_ARGS(c) &c.r_lo, &c.r_hi, &c.th_lo, &c.span, &c.u[0], &c.u[1], &c.u[2], \
    &c.u[3], &c.u[4], &c.u[5], &c.u[6], &c.u[7]

static PyObject *
py_eval_cell(PyObject *self, PyObject *args)
{
    Cell c;
    double x, y, r_eps, vx, vy;
    int clamp;
    if (!PyArg_ParseTuple(args, CELL_U "dddp:eval_cell", CELL_U_ARGS(c), &x, &y, &r_eps, &clamp)
        || eval(&c, x, y, r_eps, clamp, &vx, &vy) < 0)
        return NULL;
    return Py_BuildValue("(dd)", vx, vy);
}

static PyObject *
py_classify(PyObject *self, PyObject *args)
{
    Cell c;
    double x, y;
    if (!PyArg_ParseTuple(args, "dddddd:classify", &c.r_lo, &c.r_hi, &c.th_lo, &c.span, &x, &y))
        return NULL;
    return PyLong_FromLong(classify(&c, x, y));
}

static PyObject *
py_integrate_cell(PyObject *self, PyObject *args)
{
    Cell c;
    double x0, y0, dt, r_eps;
    long long max_steps;
    if (!PyArg_ParseTuple(args, CELL_U "dddLd:integrate_cell", CELL_U_ARGS(c), &x0, &y0, &dt,
                          &max_steps, &r_eps))
        return NULL;
    return integrate(&c, x0, y0, dt, max_steps, r_eps);
}

static PyObject *
py_integrate_many(PyObject *self, PyObject *args)
{
    Cell c;
    PyObject *starts;
    double dt, r_eps, x0, y0;
    long long max_steps;
    if (!PyArg_ParseTuple(args, CELL_U "OdLd:integrate_many", CELL_U_ARGS(c), &starts, &dt,
                          &max_steps, &r_eps)
        || (starts = PySequence_Fast(starts, "starts must be iterable")) == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(starts);
    PyObject *out = PyList_New(n);
    for (Py_ssize_t i = 0; out != NULL && i < n; i++) {
        PyObject *res = NULL;
        if (PyArg_Parse(PySequence_Fast_GET_ITEM(starts, i), "(dd)", &x0, &y0))
            res = integrate(&c, x0, y0, dt, max_steps, r_eps);
        if (res == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, res);
    }
    Py_DECREF(starts);
    return out;
}

static PyMethodDef methods[] = {
    {"eval_cell", py_eval_cell, METH_VARARGS, "See _pure.eval_cell."},
    {"classify", py_classify, METH_VARARGS, "See _pure.classify."},
    {"integrate_cell", py_integrate_cell, METH_VARARGS, "See _pure.integrate_cell."},
    {"integrate_many", py_integrate_many, METH_VARARGS, "See _pure.integrate_many."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "polaris.kernels._ckernel",
    .m_doc = "Compiled backend for the hot geometry kernels; see _pure.py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "NAME", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
