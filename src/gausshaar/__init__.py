"""Haar-induced invariant measures on multimode Gaussian pure states.

Covariance-matrix representation and Williamson spectra, Haar sampling of
homogeneous Gaussian unitaries, the closed-form symplectic-eigenvalue
densities under energy constraints, and Monte Carlo verification of those
densities under the exact energy constraint.

Importing the package runs none of its modules.  Each one but ``cli`` is
registered in ``sys.modules``, and as an attribute of the package, with
``importlib.util.LazyLoader``, so its code runs on the first read of one of
its attributes: ``haar-sample`` never runs ``montecarlo`` or ``densities``.
``cli``, the entry point, is imported as usual; registering it would make
``python -m gausshaar.cli`` run it twice.  The public names (``__all__``)
are read from their home modules on access (PEP 562), so an import error in
a module surfaces at the first use of that module, and again at every later
read of a name the module did not bind before its code raised.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# every submodule but the entry point, cli (see above)
_MODULES = ("symplectic", "haar", "densities", "montecarlo", "serialization")

# public name -> its home module
_EXPORTS = {
    "Bipartition": "symplectic",
    "GaussianPureState": "symplectic",
    "SymplecticSpectrum": "symplectic",
    "canonical_state": "symplectic",
    "entanglement_entropy": "symplectic",
    "reduced_covariance": "symplectic",
    "reduced_spectrum": "symplectic",
    "symplectic_form": "symplectic",
    "tmsv_state": "symplectic",
    "williamson_spectrum": "symplectic",
    "EulerGaussianUnitary": "haar",
    "apply_to_vacuum": "haar",
    "euler_to_symplectic": "haar",
    "passive_symplectic": "haar",
    "sample_haar_unitary": "haar",
    "sample_homogeneous_gaussian_unitary": "haar",
    "sample_lambda": "haar",
    "squeeze_symplectic": "haar",
    "EnergyConstraint": "densities",
    "balanced_sum_law": "densities",
    "density_2p2": "densities",
    "density_balanced": "densities",
    "density_submanifold_energy": "densities",
    "energy_mixing_parameters": "densities",
    "g_2p2": "densities",
    "log_density_balanced": "densities",
    "log_density_submanifold": "densities",
    "log_density_unconstrained": "densities",
    "mean_energy": "densities",
    "mean_energy_from_state": "densities",
    "HistogramReport": "montecarlo",
    "g_constraint_mc": "montecarlo",
    "sample_balanced": "montecarlo",
    "sample_density_2p2": "montecarlo",
    "sample_submanifold_energy": "montecarlo",
    "verify_constrained_density": "montecarlo",
}

__all__ = ["__version__", *_EXPORTS]


class _Loader:
    """A submodule's loader that leaves the error of a failed load on the module.

    The lazy module stays in sys.modules, holding what its code bound before
    it raised; a later read of any other name re-raises the error (PEP 562)
    instead of an AttributeError that hides it.
    """

    def __init__(self, loader):
        self.loader = loader

    def __getattr__(self, name):  # get_source and the rest of the loader's API
        return getattr(self.loader, name)

    def exec_module(self, module):
        try:
            self.loader.exec_module(module)
        except Exception as exc:
            # the except clause unbinds exc when it ends
            error, traceback = exc, exc.__traceback__

            def __getattr__(name):
                raise error.with_traceback(traceback)

            module.__getattr__ = __getattr__
            raise


def _register(name: str):
    """Put the submodule ``name`` in sys.modules, to run on its first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(_Loader(spec.loader))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _MODULES:
    globals()[_name] = _register(_name)
del _name


def __getattr__(name: str):
    try:
        home = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[home], name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
