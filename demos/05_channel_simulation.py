"""
Operator channel and minimum-distance decoding
==============================================

A codeword (a subspace) goes through a channel that erases some of its
dimensions and injects alien ones.  The decoder picks the codeword nearest
in subspace distance; as long as twice the disturbance stays below the code
distance, decoding is guaranteed, and the simulator checks that guarantee
on every trial it runs.
"""

import json

from cacodes import (
    GF,
    CAFamily,
    ChannelConfig,
    Polynomial,
    code_from_family,
    decode_min_distance,
    simulate,
    transmit,
    uniform_gcd_family,
)

F2 = GF(2)

# Three pairwise-coprime cubic rules: an equidistant code with D = 6,
# good for any erasures + errors totalling at most 2 per transmission.
members, _ = uniform_gcd_family(3, Polynomial(F2, (1,)))
family = CAFamily(members)
code = code_from_family(family)
print("code of", len(code), "subspaces, minimum distance", code.min_distance())

# One transmission, by hand: erase one dimension, inject one alien vector.
cfg = ChannelConfig(erasures=1, error_dims=1, seed=11)
sent_index = 2
received = transmit(code[sent_index], cfg, trial=0)
print("\nsent codeword", sent_index, "  received dim:", received.dim)

result = decode_min_distance(code, received, sent_index=sent_index)
print("decoded index:", result.decoded_index,
      "  distance to nearest:", result.min_distance_found,
      "  success:", result.success)
assert result.success

# A full seeded run: 2(rho + e) = 4 < 6, so every trial must succeed.
stats = simulate(code, cfg, trials=500)
print("\n500 trials at one erasure + one error dim:")
print("  success rate:", stats["success_rate"],
      "  ambiguities:", stats["ambiguities"])
print("  distance-to-sent histogram:", stats["distance_histogram"])

# Push past the guarantee: erase two dims and inject two, 2*4 > 6.
rough = simulate(code, ChannelConfig(erasures=2, error_dims=2, seed=11), trials=500)
print("\nsame code, two erasures + two error dims (beyond the guarantee):")
print("  success rate:", rough["success_rate"],
      "  ambiguity rate:", rough["ambiguity_rate"])

# Runs are reproducible: same seed, same bytes.
again = simulate(code, cfg, trials=500)
assert json.dumps(stats, sort_keys=True) == json.dumps(again, sort_keys=True)
print("\nre-running with the same seed reproduces the statistics exactly")
