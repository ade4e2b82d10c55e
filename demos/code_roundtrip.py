"""Encode, corrupt, decode: where rank-error correction stops.

A length-n code of dimension k at n independent points corrects any
error of rank up to t = (n - k) // 2, no matter how many positions the
error touches.  Past t the decoder refuses rather than guessing.
"""

import random

from rankfuzz import DecodingFailure, GabidulinCode, ext_field, random_rank_error

F = ext_field(2, 8)
code = GabidulinCode(F, 8, 4, 1, (1, 2, 4, 8, 16, 32, 64, 128))
print(f"code: n=8 k=4 over F_{{2^8}}, corrects rank <= {code.t}")

rng = random.Random(20)
msg = F.random_vector(4, rng)
word = code.encode(msg)
print(f"message  {[F.to_hex(c) for c in msg]}")
print(f"codeword {[F.to_hex(c) for c in word]}")

for e in range(code.t + 2):
    err = random_rank_error(F, 8, e, rng)
    touched = sum(1 for c in err if c)
    received = tuple(F.add(a, b) for a, b in zip(word, err))
    try:
        got, found, _ = code.decode(received)
        outcome = "exact recovery" if got == msg else "WRONG MESSAGE"
        print(f"rank-{e} error on {touched} positions: {outcome} (error rank seen: {found})")
    except DecodingFailure:
        print(f"rank-{e} error on {touched} positions: decoder refuses (beyond radius)")

# a rank-1 error may hit every single position and still be fixable:
offset = 0xA5
flood = tuple(F.add(c, offset) for c in word)
got, found, _ = code.decode(flood)
print(f"\nsame offset added to all 8 positions: rank {found} error,", end=" ")
print("exact recovery" if got == msg else "WRONG")
