"""optlab: a desk-scale laboratory for first-order optimization methods.

Six methods (sgd, hb, nag, adagrad, rmsprop, adam) behind one update
engine, an overparameterized linearly-separable generator on which the
adaptive and non-adaptive families provably land on different interpolants,
closed-form oracles for both, and the grid/decay tuning protocol.  The
package root re-exports nothing: import each name from its module, e.g.
``from optlab.training import run_training``.
"""

__version__ = "0.1.0"
