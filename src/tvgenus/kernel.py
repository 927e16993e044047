"""The float backtracker's compiled form: the search over a plan as
generated Python, one nested for loop per position.

statesum._backtrack_sum runs a plan's kernel once the first branch of its
search shows the search is long (see statesum for the rule and why the
float bits are the same).  It is a module of its own so that a process that
runs no such search, such as every exact `tvgenus compute`, does not
compile the generator.
"""

from __future__ import annotations

import itertools

from .statesum import _reads, _step_entries

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
    position last - 1 folds the last step's table entries as
    part += w * f0 * f1 * ..., the same roundings as folding them one
    factor at a time.  Longer plans are cut into chained functions of at
    most LOOPS position loops each, the first in the kernel's own body;
    each takes the colors that later steps read."""
    last = len(plan) - 1
    cuts = list(range(0, last, LOOPS)) + [last]
    # the colors a chained function takes: those read from its first
    # position on and set before it
    carried = [[f"c{p}" for p in sorted(
        {q for faces, tets, _ in plan[a:]
         for q in itertools.chain(*faces, *tets) if q < a})] for a in cuts]
    env = ["delta=delta", "third=third", "theta_inv=theta_inv", "memo=memo",
           "fill=fill", "lv=lv", "every=every", "table=table"]
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
            faces, tets, pair = plan[k]
            source = ("firsts" if k == 0 else "every" if pair is None
                      else "third[c{}][c{}]".format(*pair))
            body.append(f"{ind}for c{k} in {source}:")
            ind += "    "
            if k == 0:
                body.append(f"{ind}part = branch[c0]")
            factors = [f"w{k - 1}" if k else "one", f"delta[c{k}]"]
            for n, (x, y, z) in enumerate(faces):
                body.append(f"{ind}i{n} = theta_inv[c{x}][c{y}][c{z}]")
                if n or pair is None:
                    body.append(f"{ind}if i{n} is None: continue")
                factors.append(f"i{n}")
            for n, tet in enumerate(tets):
                # a Tet of 0 reads false; fill returns the memo's value
                args = ", ".join(f"c{p}" for p in tet)
                body.append(f"{ind}t{n} = memo(({args})) or fill({args})")
                factors.append(f"t{n}")
            body += [f"{ind}w{k} = {' * '.join(factors)}",
                     f"{ind}entered += 1"]
        ind = "    " * (b - a)
        if b < last:
            body += [f"{ind}part, de, dl = _k{j + 1}(part, w{b - 1}, "
                     f"{', '.join(carried[j + 1])})",
                     f"{ind}entered += de",
                     f"{ind}leaves += dl"]
        else:
            reads = _reads(plan, last)
            key = "(" + "".join(f"c{p}, " for p in reads) + ")"
            cols = ", ".join(f"c{p}" if p in reads else "0"
                             for p in range(last + 1))
            fs = [f"f{n}" for n in range(1 + len(plan[last][0])
                                         + len(plan[last][1]))]
            body += [f"{ind}entries = table.get({key})",
                     f"{ind}if entries is None:",
                     f"{ind}    entries = table[{key}] = _step_entries("
                     f"lv, every, step, [{cols}], {last})",
                     f"{ind}leaves += len(entries)",
                     f"{ind}for _, ({''.join(f + ', ' for f in fs)}) in entries:",
                     f"{ind}    part += {' * '.join([f'w{last - 1}', *fs])}"]
        if j:
            body.append("return part, entered, leaves")
        else:
            body += ["    branch[c0] = part", "return entered, leaves"]
        lines += [("        " if j else "    ") + line for line in body]
    namespace = {"_step_entries": _step_entries, "step": plan[last]}
    exec(compile("\n".join(lines), "<statesum kernel>", "exec"), namespace)
    return namespace["kernel"]
