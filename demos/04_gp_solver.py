#!/usr/bin/env python3
"""The GP toolchain on small problems: posynomial algebra, the AM-GM
monomial under-approximation, the convex transform and the barrier solver."""

import numpy as np

from scma_d2d import (
    Monomial,
    Posynomial,
    condense,
    find_feasible,
    solve,
    to_convex_form,
)

reg = ("x1", "x2")

# --- a standard GP with a known answer ---------------------------------
# minimize 1/(x1*x2) subject to x1 <= 2, x2 <= 3: both caps go tight.
objective = Monomial.from_powers(reg, 1.0, {"x1": -1, "x2": -1}).as_posynomial()
caps = [Monomial.from_powers(reg, 1 / 2, {"x1": 1}).as_posynomial(),
        Monomial.from_powers(reg, 1 / 3, {"x2": 1}).as_posynomial()]
res = solve(to_convex_form(objective, constraints=caps), y0=np.zeros(2))
print(f"min 1/(x1 x2) s.t. x1<=2, x2<=3  ->  x* = {res.x.round(9)}, "
      f"value {res.objective_value:.9f} (expect 1/6)")
print(f"status {res.status}, {res.newton_steps_used} Newton steps, "
      f"certified gap {res.certified_gap:.1e}")

# --- condensation: the engine behind the power allocator ----------------
# x + 1/x condensed at x0 = 1 collapses to the constant 2 (its minimum).
g = Posynomial.from_monomials([Monomial.from_powers(("x",), 1.0, {"x": 1}),
                               Monomial.from_powers(("x",), 1.0, {"x": -1})])
tilde = condense(g, [1.0])
print(f"\ncondense(x + 1/x at x0=1): {tilde.coefficient:.6f} * x^"
      f"{tilde.exponents[0]:.1f}")
for x in (0.5, 1.0, 2.0):
    print(f"  at x={x}: posynomial {g.evaluate([x]):.4f} >= "
          f"monomial {tilde.evaluate([x]):.4f}")

# --- phase-1 feasibility -------------------------------------------------
# contradictory constraints are certified empty instead of looping
bad = to_convex_form(objective, constraints=[
    Monomial.from_powers(reg, np.e, {"x1": 1}).as_posynomial(),    # x1 <= 1/e
    Monomial.from_powers(reg, np.e, {"x1": -1}).as_posynomial(),   # x1 >= e
])
feas = find_feasible(bad)
print(f"\ncontradictory caps: feasible={feas.feasible}, "
      f"best log-slack {feas.max_slack:.3f} (> 0 certifies empty)")
