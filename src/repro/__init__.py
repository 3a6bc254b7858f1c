"""repro — a reproduction of *When Can We Trust Progress Estimators for SQL
Queries?* (Chaudhuri, Kaushik, Ramamurthy; SIGMOD 2005).

The package ships a pure-Python iterator-model query engine (storage,
indexes, statistics, physical operators, a SQL front end) instrumented under
the paper's GetNext model of work, the progress-estimator tool-kit the
paper analyzes (``dne``, ``pmax``, ``safe`` and the §6.4 hybrids), and a
concurrent query service with cancellation, deadlines and live per-query
progress.

The stable public surface is the :mod:`repro.api` facade, re-exported here:

    import repro

    session = repro.connect(catalog=catalog)
    report = session.run("SELECT g, COUNT(*) FROM t GROUP BY g")
    handle = session.submit(plan, deadline=5.0)

See ``docs/api.md`` for the full surface and the stability policy.
"""

__version__ = "1.1.0"

#: lazily-resolved public surface: name -> (module, attribute)
_EXPORTS = {
    "connect": ("repro.api", "connect"),
    "Session": ("repro.api", "Session"),
    "ExecutionOptions": ("repro.options", "ExecutionOptions"),
    "QueryHandle": ("repro.service", "QueryHandle"),
    "QueryService": ("repro.service", "QueryService"),
    "QueryState": ("repro.service", "QueryState"),
    "BACKENDS": ("repro.service", "BACKENDS"),
    "CatalogSpec": ("repro.service", "CatalogSpec"),
    "ReproError": ("repro.errors", "ReproError"),
    "AdmissionError": ("repro.errors", "AdmissionError"),
    "QueryCancelled": ("repro.errors", "QueryCancelled"),
    "QueryTimeout": ("repro.errors", "QueryTimeout"),
    "DegenerateBoundsError": ("repro.errors", "DegenerateBoundsError"),
}

__all__ = ["__version__"] + sorted(_EXPORTS)


def __getattr__(name: str):
    # Lazy so that `import repro` stays free of engine import cost for
    # consumers that only want a submodule.
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
