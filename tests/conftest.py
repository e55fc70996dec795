"""Shared oracle constants and the acceptance-verdict terminal summary."""

import math

# Reference parameter points used across the suite.
PT_FOLD = (2.5, 1.4, -0.5, -1.2)  # two invariant left rays, partial basin
PT_STABLE = (2.0, 1.4, -0.8, -1.2)  # certificate-stable
PT_UNSTABLE = (1.4, 1.4, -1.4, -1.2)  # period-3 obstruction
PT_CONTRACT = (0.5, 0.2, -0.5, -0.2)  # strongly contracting both sides
# Started at angle 0.5, its orbit's 7th block of 16 steps starts from the
# float state the 6th started from, and so does every later block.
PT_CYCLING = (1.479, 0.35, -0.1, -1.5)

# Frozen oracles for PT_FOLD, derived by hand from the closed forms
#   lambda_pm = tau/2 +- sqrt(tau^2/4 - delta), ray angle = atan(lambda - tau)
# folded into [0, pi), and cross-checked by bisection on the circle map and
# by brute-force orbit classification of 4000 equispaced directions.
FOLD_LAM_L_PLUS = 1.6531128874149275
FOLD_LAM_L_MINUS = 0.8468871125850724
FOLD_THETA_L_PLUS = 2.438908559224642
FOLD_THETA_L_MINUS = 2.1148251589736464
FOLD_LAM_R_PLUS = 0.8736102527122116
FOLD_THETA_R_PLUS = 0.9415189449391843
FOLD_THETA_LAMBDA = 1.965587446494658
FOLD_RHO = 0.3719449668937921  # 1 - (psi - theta_L_minus)/(2 pi)
FOLD_PSI = 6.061011315086761  # unique preimage of theta_L_minus in (3pi/2, 2pi)

# Frozen oracles for PT_STABLE.
STABLE_THETA_R_PLUS = 1.0025536877465075
STABLE_LAM_R_PLUS = 0.76619037896906

# Frozen oracles for PT_UNSTABLE: fixed ray plus two period-3 orbits of the
# circle map, found by dense sign scan of G^3 - id and bisection to 1e-12.
UNSTABLE_FP = math.atan(2.0)  # 1.1071487177940904
UNSTABLE_FP_MULT = 0.6
P3_EXPANDING = (0.3355221128250806, 1.7534165227085374, 2.2902364508878286)
P3_EXPANDING_LAMBDA = 0.0291157931
P3_CONTRACTING = (0.6486382225382463, 1.2473363150060939, 2.062012847242616)
P3_CONTRACTING_LAMBDA = -0.2467982573

# Birkhoff averages quoted to two decimals in the source material.
LAMBDA_STABLE_REF = -0.16
LAMBDA_UNSTABLE_REF = -0.06

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
