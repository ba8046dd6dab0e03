"""Shared pytest hooks.

The acceptance tests register one PASS/FAIL line each; printing them from a
terminal-summary hook keeps them visible even though pytest captures stdout
of passing tests.
"""

ACCEPTANCE_SCORECARD = []


def is_fifth_power_zp(n, p):
    """Reference: True iff the integer n is a fifth power in Z_p (0 = 0^5).

    The valuation must be a multiple of 5.  A p-adic unit u is then a fifth
    power iff u mod 25 is one for p = 5 (one Hensel step past mod 5), iff
    u^((p-1)/5) = 1 mod p for p = 1 mod 5, and always otherwise, since
    x -> x^5 is then a bijection of the units."""
    if n == 0:
        return True
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    if v % 5:
        return False
    if p == 5:
        return n % 25 in {pow(x, 5, 25) for x in range(25) if x % 5}
    return p % 5 != 1 or pow(n % p, (p - 1) // 5, p) == 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_SCORECARD:
        terminalreporter.section("acceptance scorecard")
        for line in ACCEPTANCE_SCORECARD:
            terminalreporter.write_line(line)
