"""The float backtracker's compiled form: the search over a plan as
generated Python, one nested for loop per position.

statesum._backtrack_sum runs a plan's kernel once the first branch of its
search shows the search is long (see statesum for the rule and why the
float bits are the same).  It is a module of its own so that a process that
runs no such search, such as every exact `tvgenus compute`, does not
compile the generator.

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

import itertools

from .statesum import _reads

# CPython 3.10-3.12 refuse more than 20 statically nested blocks: a kernel
# function holds at most this many position loops, and one loop more
LOOPS = 19


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
    factor at a time.  Longer plans are cut into chained functions of at
    most LOOPS position loops each, the first in the kernel's own body;
    each takes the colors that later steps read.  A 1/theta row is set only
    in the function that reads it; a face whose row would be set in an
    earlier function reads theta_inv in full."""
    last = len(plan) - 1
    cuts = list(range(0, last, LOOPS)) + [last]
    # the colors a chained function takes: those read from its first
    # position on and set before it
    carried = [[f"c{p}" for p in sorted(
        {q for faces, tets, _ in plan[a:]
         for q in itertools.chain(*faces, *tets) if q < a})] for a in cuts]
    # the 1/theta reads of each step, and the rows set at each position
    thetas, rows = [], [[] for _ in plan]
    for k, (faces, _, _) in enumerate(plan):
        # the first position of the function that runs step k
        start = min(k, last - 1) // LOOPS * LOOPS
        reads = []
        for face in faces:
            others = sorted(p for p in face if p != k)
            if len(others) < 2 or others[1] < start:
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

    env = ["delta=delta", "third=third", "theta_inv=theta_inv", "memo=memo",
           "fill=fill", "every=every", "table=table"]
    lines = ["def kernel(lv, every, firsts, branch, table):",
             "    one, delta, third = lv.one, lv.delta, lv.third",
             "    theta_inv, memo, fill = lv.theta_inv, lv.tet_memo.get, lv.tet"]
    for j in reversed(range(len(cuts) - 1)):  # each names the next one
        a, b = cuts[j], cuts[j + 1]
        if j:
            params = ["part", f"w{a - 1}", *carried[j], *env]
            if b < last:
                params.append(f"_k{j + 1}=_k{j + 1}")
            lines.append(f"    def _k{j}({', '.join(params)}):")
        body = ["entered = leaves = 0"]
        for k in range(a, b):
            ind = "    " * (k - a)
            body.append(f"{ind}for c{k} in {source(k)}:")
            ind += "    "
            if k == 0:
                body.append(f"{ind}part = branch[c0]")
            checks, factors = step(k, ind)
            factors = [f"w{k - 1}" if k else "one", f"delta[c{k}]", *factors]
            body += [*checks,
                     f"{ind}w{k} = {' * '.join(factors)}",
                     f"{ind}entered += 1"]
            body += [f"{ind}h{u}_{v} = theta_inv[c{u}][c{v}]"
                     for u, v in rows[k]]
        ind = "    " * (b - a)
        if b < last:
            body += [f"{ind}part, de, dl = _k{j + 1}(part, w{b - 1}, "
                     f"{', '.join(carried[j + 1])})",
                     f"{ind}entered += de",
                     f"{ind}leaves += dl"]
        else:
            key = "(" + "".join(f"c{p}, " for p in _reads(plan, last)) + ")"
            checks, factors = step(last, ind + "        ")
            entry = "".join(f + ", " for f in [f"delta[c{last}]", *factors])
            fs = [f"f{n}" for n in range(1 + len(factors))]
            body += [f"{ind}entries = table.get({key})",
                     f"{ind}if entries is None:",
                     f"{ind}    entries = table[{key}] = []",
                     f"{ind}    for c{last} in {source(last)}:",
                     *checks,
                     f"{ind}        entries.append((c{last}, ({entry})))",
                     f"{ind}leaves += len(entries)",
                     f"{ind}for _, ({''.join(f + ', ' for f in fs)}) in entries:",
                     f"{ind}    part += {' * '.join([f'w{last - 1}', *fs])}"]
        if j:
            body.append("return part, entered, leaves")
        else:
            body += ["    branch[c0] = part", "return entered, leaves"]
        lines += [("        " if j else "    ") + line for line in body]
    namespace: dict = {}
    exec(compile("\n".join(lines), "<statesum kernel>", "exec"), namespace)
    return namespace["kernel"]
