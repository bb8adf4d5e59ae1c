"""Single-layer timings that the traced commands cannot isolate.

    python3 perfbench/micro.py RESULT TRUNCATION NMAX CACHE_DIR CACHE_LEVEL

Runs in a fresh interpreter, like the commands, and scales its times to the
reference machine speed as child.py does, from probes taken before and
after. A size of 0 (or "-" for the cache directory) skips that group; its
metrics are reported as 0.

    qseries   mul, pow, reciprocal and substitute on the pentagonal series
              F = prod(1 - q^n) at TRUNCATION: F*F, F**4, 1/F, F(q^2)
    arith     trial-division sigma(1, n) for n = 1..NMAX
    cache     expand each registered cusp quotient of CACHE_LEVEL at
              TRUNCATION, put it into a fresh SeriesCache at CACHE_DIR and
              read it back; get_over_expand = total get / total expand
"""

import json
import sys
import time

from child import REFERENCE_PROBE_S, Speedometer


def timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def measure(truncation: int, nmax: int, cache_dir: str, cache_level: int) -> dict:
    from divconv import arith, eta, modforms
    from divconv.cache import SeriesCache

    out = {}
    if truncation:
        f = eta.euler_F(truncation)
        out["qseries.mul_s"] = timed(f.__mul__, f)[0]
        out["qseries.pow_s"] = timed(f.__pow__, 4)[0]
        out["qseries.reciprocal_s"] = timed(f.reciprocal)[0]
        out["qseries.substitute_s"] = timed(f.substitute, 2, truncation)[0]
    if nmax:
        out["arith.sigma_s"] = timed(lambda: [arith.sigma(1, n) for n in range(1, nmax + 1)])[0]
    if cache_dir != "-":
        store = SeriesCache(cache_dir)
        expand_s = put_s = get_s = 0.0
        size = 0
        for quotient in modforms.registered_cusp_quotients(cache_level):
            seconds, series = timed(eta.expand_eta_quotient, quotient, truncation)
            expand_s += seconds
            params = {"kind": "eta", **quotient.to_json_dict(), "truncation": truncation}
            seconds, payload = timed(store.put, params, series)
            put_s += seconds
            size += len(payload)
            seconds, back = timed(store.get, params)
            get_s += seconds
            if back != series:
                raise SystemExit(f"cache round trip changed the series of {quotient}")
        out.update({"cache.put_s": put_s, "cache.get_s": get_s, "cache.bytes": size})
        out["cache.get_over_expand"] = get_s / expand_s
    return out


def main() -> None:
    result_path, truncation, nmax, cache_dir, cache_level = sys.argv[1:6]
    speed = Speedometer()
    speed.around()
    out = measure(int(truncation), int(nmax), cache_dir, int(cache_level))
    speed.around()
    scale = REFERENCE_PROBE_S / speed.mean
    for name in out:
        if name.endswith("_s"):
            out[name] *= scale
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
