"""The float backtracker's compiled form: the search over a plan as
generated Python, one nested for loop per position.

statesum._backtrack_sum runs a plan's kernel once the first branch of its
search shows the search is long (see statesum for the rule and why the
float bits are the same).  It is a module of its own so that a process that
runs no such search, such as every exact `tvgenus compute`, does not
compile the generator.

A kernel is one generated function, whose loops nest as deep as the plan
has positions; CPython 3.10-3.12 compile at most 20 nested loops, so
statesum runs a deeper plan in the interpreted loop.

The kernel fills the last step's table itself, in generated code: on a miss
it loops over the last position's colors and appends each admissible one
with its factors, as statesum._step_entries would, at no call per prefix.
A face that holds its step's color once reads its 1/theta from a row, set
at the later of the face's other two positions: h1_3 = theta_inv[c1][c3],
read as h1_3[c4].  theta_inv shares one float object among the
permutations of a triple, so the row gives the float of the full lookup.
On `t3`, whose last step reads every other position and so misses on
every prefix, the search takes 6.3 ms at r=8 and 12.0 ms at r=9, against
18.1 and 38.9 ms with each miss filled by a call of _step_entries
(CPython 3.11, the least of 9 runs).
"""

from __future__ import annotations

from .statesum import _reads


def compile_kernel(plan):
    """The plan's search as generated Python, with the signature and effect
    of statesum._search_inline: one nested for loop per position before the
    last, its color and its weight in locals (c3, w3).  Each position checks
    its faces in plan order (not a paired step's first face: third admits
    it), reads Tet from the memo, and multiplies delta, the 1/theta and the
    Tet factors into the weight left to right, as the inline search does;
    position last - 1 fills the last step's table on a miss, with the colors,
    factors and order of statesum._step_entries, and folds its entries as
    part += w * f0 * f1 * ..., the same roundings as folding them one
    factor at a time.  The plan has at most 20 positions."""
    last = len(plan) - 1
    # the 1/theta reads of each step, and the rows set at each position
    thetas, rows = [], [[] for _ in plan]
    for k, (faces, _, _) in enumerate(plan):
        reads = []
        for face in faces:
            others = sorted(p for p in face if p != k)
            if len(others) < 2:
                reads.append("theta_inv[c{}][c{}][c{}]".format(*face))
                continue
            u, v = others
            if (u, v) not in rows[v]:
                rows[v].append((u, v))
            reads.append(f"h{u}_{v}[c{k}]")
        thetas.append(reads)

    def step(k, ind):
        """The lines that check step k's faces and read its Tet, and its
        factors after delta."""
        out, factors = [], []
        for n, read in enumerate(thetas[k]):
            out.append(f"{ind}i{n} = {read}")
            if n or plan[k][2] is None:
                out.append(f"{ind}if i{n} is None: continue")
            factors.append(f"i{n}")
        for n, tet in enumerate(plan[k][1]):
            # a Tet of 0 reads false; fill returns the memo's value
            args = ", ".join(f"c{p}" for p in tet)
            out.append(f"{ind}t{n} = memo(({args})) or fill({args})")
            factors.append(f"t{n}")
        return out, factors

    def source(k):
        pair = plan[k][2]
        return ("firsts" if k == 0 else "every" if pair is None
                else "third[c{}][c{}]".format(*pair))

    lines = ["def kernel(lv, every, firsts, branch, table):",
             "    one, delta, third = lv.one, lv.delta, lv.third",
             "    theta_inv, memo, fill = lv.theta_inv, lv.tet_memo.get, lv.tet",
             "    entered = leaves = 0"]
    for k in range(last):
        ind = "    " * (k + 1)
        lines.append(f"{ind}for c{k} in {source(k)}:")
        ind += "    "
        if k == 0:
            lines.append(f"{ind}part = branch[c0]")
        checks, factors = step(k, ind)
        factors = [f"w{k - 1}" if k else "one", f"delta[c{k}]", *factors]
        lines += [*checks,
                  f"{ind}w{k} = {' * '.join(factors)}",
                  f"{ind}entered += 1"]
        lines += [f"{ind}h{u}_{v} = theta_inv[c{u}][c{v}]" for u, v in rows[k]]
    ind = "    " * (last + 1)
    key = "(" + "".join(f"c{p}, " for p in _reads(plan, last)) + ")"
    checks, factors = step(last, ind + "        ")
    entry = "".join(f + ", " for f in [f"delta[c{last}]", *factors])
    fs = [f"f{n}" for n in range(1 + len(factors))]
    lines += [f"{ind}entries = table.get({key})",
              f"{ind}if entries is None:",
              f"{ind}    entries = table[{key}] = []",
              f"{ind}    for c{last} in {source(last)}:",
              *checks,
              f"{ind}        entries.append((c{last}, ({entry})))",
              f"{ind}leaves += len(entries)",
              f"{ind}for _, ({''.join(f + ', ' for f in fs)}) in entries:",
              f"{ind}    part += {' * '.join([f'w{last - 1}', *fs])}",
              "        branch[c0] = part",
              "    return entered, leaves"]
    namespace: dict = {}
    exec(compile("\n".join(lines), "<statesum kernel>", "exec"), namespace)
    return namespace["kernel"]
