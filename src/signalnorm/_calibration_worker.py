"""Worker interpreter of a split null calibration.

Run as ``python -m signalnorm._calibration_worker`` by
:mod:`signalnorm.calibration`, which sets single-threaded BLAS in its
environment.  Reads one pickled task from stdin (the calibration arguments,
a trial range and the caller's warning filters), computes that range's null
statistics, and writes the pickled ``(statistics, first exception or None)``
to stdout.  It lives apart from :mod:`signalnorm.calibration` because the
package imports that module, and ``-m`` on an imported module warns.
"""

import pickle
import sys
import warnings

from signalnorm.calibration import _null_statistics


def main() -> None:
    task = pickle.load(sys.stdin.buffer)
    warnings.resetwarnings()  # voids what start-up registered under the old filters
    warnings.filters[:] = task["filters"]
    try:
        result = (_null_statistics(task["job"], task["lo"], task["hi"]), None)
    except Exception as exc:  # sent back, to be raised by the caller
        result = (None, exc)
    sys.stdout.buffer.write(pickle.dumps(result))


if __name__ == "__main__":
    main()
