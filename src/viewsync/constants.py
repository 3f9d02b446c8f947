"""Frozen implementation constants for the performance bounds.

Both values are asserted, not recomputed, everywhere else; see the
word-bound, responsiveness and steady-state pace checks in metrics.
tools/calibrate.py measures the worst observed ratios over 996 runs at n in
{4, 7}: 756 runs stopping at sync_plus over every adversary strategy,
network strategy, offset mode and three stabilisation times; 168
fixed-horizon runs long enough for several correct-led groups; and 72
responsive runs at tiny actual delays (n = 4). It prints the smallest
integers dominating them, W 12 and C 0. The frozen W = 16 and C = 6 sit
above those on structural grounds (see each constant). Raising them
silently would weaken the regression guarantees, so any change requires
re-running the calibration and updating the figures recorded here.
"""

# Word budget per processor per leader group. A fully exercised group costs
# at most 11 words per processor (boundary: view message, certificate
# broadcast, proposal, vote, quorum broadcast = 5; then k-1 = 2 in-group
# rounds of proposal/vote/quorum = 6), and a measurement window whose ends
# are quorum events additionally captures partial handshakes from the groups
# at both edges (up to ~5 more). The calibration's worst case is 82/7 ~= 11.71
# words per processor per charged group; frozen one integer above the
# structural 11 + 5 ceiling. Used as: words in
# [gst + delta_cap, t_star] <= WORD_RATE_W * (f_star + 3) * n, and per
# steady-state window <= WORD_RATE_W * (f_local + 1) * n.
WORD_RATE_W = 16

# Sequential message hops charged per recovery handshake: view message to
# the leader, certificate broadcast, proposal, vote, quorum broadcast = 5,
# plus one spare. Calibrated worst cases: responsive latency slack never
# exceeded Gamma + delta_cap (ratio <= 0), and steady-state pace slack never
# exceeded 0 message delays, so the constant is pure headroom. Used as:
# t_star - gst <= RESPONSE_STEPS_C * delta + gamma + delta_cap on responsive
# runs, and window pace <= k * (f_local + 1) * gamma + RESPONSE_STEPS_C *
# delta_eff.
RESPONSE_STEPS_C = 6
