"""Run the full closed-form verification report.

Every closed-form invariant of the order-2^n family is recomputed from
the constructed graph and compared; the bundled-table demonstrations are
appended.  Verdicts: match, mismatch, typo-corrected (a malformed
printed formula whose correction the computation confirms), skipped
(a library search refused the input; the entry carries the refusal, and
no entry of the order-2^n family is refused).

Equivalent CLI: gyrograph verify-paper --n 3..4
"""

from gyrograph import run_verification

report = run_verification([3, 4])
print(report.render_text())

print("mismatches:", [e.claim_id for e in report.entries if e.verdict == "mismatch"])
