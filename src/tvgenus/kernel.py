"""The float search: the backtracker, interpreted and compiled.

Float mode sums by depth-first search over statesum's plan (statesum
describes the plan, the order of the float operations and why float keeps
it).  _backtrack_sum adds the partial sums of _branches, one per color of
position 0, in ascending color order.  _branches searches position 0's
first color in the interpreted loop, _search_inline; if that branch
entered more than _KERNEL_MIN_ENTERED (300) prefixes, it runs the other
colors of position 0 in the plan's kernel, Python source that
compile_kernel generates for the plan and that makes the same float
operations in the same order.  Compiling a kernel costs more than most
census searches take, while the rest of a long search enters several times
the prefixes of its first branch, so 300 sits near the break-even at r=5
and is safe above (ROADMAP holds the measurements).  Exact mode sums over
statesum's frontier instead, so an exact `tvgenus compute` never loads
this module.

A kernel is one generated function, whose loops nest as deep as the plan
has positions.  CPython 3.10-3.12 refuse more than 20 statically nested
blocks, so a plan of more than 20 positions (_KERNEL_MAX_POSITIONS) runs
interpreted, on every Python, so that the engine a search runs in does not
depend on the version.  No workload's plan comes near, and under the
default guard such a search runs only at r=3, whose first branch enters
fewer than 300 prefixes.

Each position's loop holds its color and weight in locals (c3, w3),
checks the faces in plan order, reads Tet, and sets w3 = w2 * delta[c3] *
1/theta... * Tet....  Position last - 1 folds the last step's table as
part += w * f0 * f1 * ....  Python's * is left-associative, so each
product rounds as the interpreted loop's one-factor-at-a-time products
do; both add into the same partial sums by first color and read the same
table, so the total, entered and leaves keep every bit.

A miss fills the table with statesum._step_entries, as the interpreted
loop does.  The kernel looks the table up once per coloring of the
positions the last step reads: entries is set to None in the loop of the
latest of them, and position last - 1 reads the table only while it is
None.
A face of an inner step that holds the step's color once reads its
1/theta from a row, set at the later of the face's other two positions:
h1_3 = theta_inv[c1][c3], read as h1_3[c4].  theta_inv shares one float
object among the permutations of a triple, so the row gives the float of
the full lookup.
An inner step's Tet reads a row too: a list by the step's color, fetched
at the latest of the Tet's other positions from the carrier's tet_rows,
keyed by the bitmask of the arguments that are the step's color and the
other arguments' colors.  In `rp3#rp3`, R8_1 = tet_rows.get((16, c0, c2,
c0, c2, c6)) is fetched in the loop of position 6 and read as R8_1[c8]
for Tet(c0, c2, c0, c2, c8, c6), under every color of position 7.  A slot
is filled on its first read with the memo's own float object.  The key
fixes the Tet tuple for every color, whatever the plan, so a row is a view
of tet_memo: every search of the level shares it, and it goes with the
carrier.  A Tet whose other arguments hold every earlier position would
get a row per prefix, each slot read once, so it reads the memo, as a
Tet of six step colors does.
"""

from __future__ import annotations

from .statesum import _picker, _reads, _step_entries

# a first branch (position 0's first color) that entered more prefixes than
# this has the other branches searched by the compiled kernel: near the
# break-even of compile cost and saving at r=5 (see above)
_KERNEL_MIN_ENTERED = 300
# the most positions a kernel nests a loop for: CPython 3.10-3.12 compile
# at most 20 nested blocks, so a deeper plan is searched inline throughout
_KERNEL_MAX_POSITIONS = 20


def _backtrack_sum(lv, plan, every):
    """The sum over the colorings by depth-first search, and the numbers of
    entered positions and of leaves: the partial sums of _branches added
    in ascending color order."""
    branch, entered, leaves = _branches(lv, plan, every)
    total = lv.zero
    for part in branch:  # ascending color order: deterministic floats
        total += part
    return total, entered, leaves


def _branches(lv, plan, every):
    """The sums of the colorings by the color of position 0, and the numbers
    of entered positions and of leaves.  Position 0's first color is
    searched inline; if that branch entered more than _KERNEL_MIN_ENTERED
    prefixes and the plan has at most _KERNEL_MAX_POSITIONS positions, its
    other colors run in the plan's compiled kernel, which makes the same
    float operations in the same order.  Both add into the same partial
    sums and read the same last-step table."""
    table: dict = {}  # the last step's entries by the colors it reads
    branch = [lv.zero] * len(lv.delta)
    entered, leaves = _search_inline(lv, plan, every, every[:1], branch, table)
    if (entered > _KERNEL_MIN_ENTERED
            and len(plan) <= _KERNEL_MAX_POSITIONS):
        rest = compile_kernel(plan)(lv, every, every[1:], branch, table)
    else:
        rest = _search_inline(lv, plan, every, every[1:], branch, table)
    return branch, entered + rest[0], leaves + rest[1]


def _search_inline(lv, plan, every, firsts, branch, table):
    """Search the colorings whose position 0 takes a color of firsts, adding
    each leaf into branch; return the entered positions and the leaves.
    Each admissible prefix of the last step folds that step's table
    entries into its branch, leaf by leaf."""
    delta, theta_inv, third = lv.delta, lv.theta_inv, lv.third
    memo, fill = lv.tet_memo.get, lv.tet
    last = len(plan) - 1  # closed: E = V + n >= 2, so last >= 1
    last_reads = _picker(_reads(plan, last))
    colors = [0] * len(plan)
    weights = [lv.one] * len(plan)  # weights[k]: product before position k
    untried = [iter(firsts)] + [None] * last  # colors left at each position
    entered = leaves = 0
    k = 0
    while k >= 0:
        faces, tets, _ = plan[k]
        before = weights[k]
        for c in untried[k]:
            colors[k] = c
            w = before * delta[c]
            for (px, py, pz) in faces:
                inv = theta_inv[colors[px]][colors[py]][colors[pz]]
                if inv is None:
                    break  # prune: the face triple is inadmissible
                w = w * inv
            else:
                for (p0, p1, p2, p3, p4, p5) in tets:
                    key = (colors[p0], colors[p1], colors[p2], colors[p3],
                           colors[p4], colors[p5])
                    val = memo(key)
                    w = w * (fill(*key) if val is None else val)
                entered += 1
                if k < last - 1:
                    weights[k + 1] = w
                    k += 1
                    pair = plan[k][2]
                    untried[k] = iter(every if pair is None else
                                      third[colors[pair[0]]][colors[pair[1]]])
                    break
                read = last_reads(colors)
                entries = table.get(read)
                if entries is None:
                    entries = table[read] = _step_entries(
                        lv, every, plan[last], colors, last)
                leaves += len(entries)
                part = branch[colors[0]]
                for _, fs in entries:
                    leaf = w
                    for f in fs:
                        leaf = leaf * f
                    part += leaf
                branch[colors[0]] = part
        else:
            k -= 1
    return entered, leaves


def compile_kernel(plan):
    """The plan's search as generated Python, with the signature and effect
    of _search_inline: one nested for loop per position before the
    last, its color and its weight in locals (c3, w3).  Each position checks
    its faces in plan order (not a paired step's first face: third admits
    it), reads Tet from a row or the memo, and multiplies delta, the 1/theta
    and the Tet factors into the weight left to right, as the inline search
    does; position last - 1 looks the last step's table up once per coloring
    of the positions that step reads, fills it on a miss with
    statesum._step_entries, as the interpreted loop does, and folds its
    entries as part += w * f0 * f1 * ..., the same roundings as folding
    them one factor at a time.  The plan has at most 20 positions."""
    last = len(plan) - 1
    # the lines of each position's loop that check its faces, read its Tet
    # and set its weight, and the lines it runs to set the rows that later
    # steps read
    body, rows = [], [[] for _ in plan]
    for k, (faces, tet_args, pair) in enumerate(plan[:last]):
        out, factors = [], [f"w{k - 1}" if k else "one", f"delta[c{k}]"]
        for n, face in enumerate(faces):
            others = sorted(p for p in face if p != k)
            if len(others) < 2:
                out.append("i{} = theta_inv[c{}][c{}][c{}]".format(n, *face))
            else:
                u, v = others
                row = f"h{u}_{v} = theta_inv[c{u}][c{v}]"
                if row not in rows[v]:
                    rows[v].append(row)
                out.append(f"i{n} = h{u}_{v}[c{k}]")
            if n or pair is None:  # third admits a paired step's first face
                out.append(f"if i{n} is None: continue")
            factors.append(f"i{n}")
        for n, tet in enumerate(tet_args):
            # a Tet of 0 reads false; fill returns the memo's value
            args = ", ".join(f"c{p}" for p in tet)
            fill = f"memo(({args})) or fill({args})"
            others = [p for p in tet if p != k]
            factors.append(f"t{n}")
            # a Tet of six step colors and one of every earlier position
            # (whose row one prefix would read once per slot) read the
            # memo; another reads its row of the Tets that differ only in
            # the arguments that are color k, keyed by which those are and
            # the other arguments' colors
            if not others or {*others} == {*range(k)}:
                out.append(f"t{n} = {fill}")
                continue
            row = f"R{k}_{n}"
            mask = sum(1 << i for i, p in enumerate(tet) if p == k)
            key = ", ".join([str(mask), *(f"c{p}" for p in others)])
            rows[max(others)] += [
                f"{row} = tet_rows.get(({key}))",
                f"if {row} is None: {row} = tet_rows[({key})] = [None] * "
                "len(delta)"]
            out += [f"t{n} = {row}[c{k}]",
                    f"if t{n} is None: t{n} = {row}[c{k}] = {fill}"]
        body.append(out + [f"w{k} = {' * '.join(factors)}", "entered += 1"])
    # the last step's table key is set once position m has its color
    m = max(_reads(plan, last), default=0)

    lines = ["def kernel(lv, every, firsts, branch, table):",
             "    one, delta, third = lv.one, lv.delta, lv.third",
             "    theta_inv, memo, fill = lv.theta_inv, lv.tet_memo.get, lv.tet",
             "    entered = leaves = 0",
             "    tet_rows = lv.tet_rows"]
    for k in range(last):
        pair = plan[k][2]
        source = ("firsts" if k == 0 else "every" if pair is None
                  else "third[c{}][c{}]".format(*pair))
        ind = "    " * (k + 1)
        lines.append(f"{ind}for c{k} in {source}:")
        ind += "    "
        if k == 0:
            lines.append(f"{ind}part = branch[c0]")
        lines += [ind + line for line in body[k] + rows[k]]
        if k == m:
            lines.append(f"{ind}entries = None")
    ind = "    " * (last + 1)
    key = "(" + "".join(f"c{p}, " for p in _reads(plan, last)) + ")"
    cols = "[" + "".join(f"c{p}, " for p in range(last)) + "0]"
    fs = [f"f{n}" for n in range(1 + len(plan[last][0]) + len(plan[last][1]))]
    lines += [f"{ind}if entries is None:",
              f"{ind}    entries = table.get({key})",
              f"{ind}    if entries is None:",
              f"{ind}        entries = table[{key}] = step_entries(",
              f"{ind}            lv, every, last_step, {cols}, {last})",
              f"{ind}    count = len(entries)",
              f"{ind}leaves += count",
              f"{ind}for _, ({''.join(f + ', ' for f in fs)}) in entries:",
              f"{ind}    part += {' * '.join([f'w{last - 1}', *fs])}",
              "        branch[c0] = part",
              "    return entered, leaves"]
    namespace = {"step_entries": _step_entries, "last_step": plan[last]}
    exec(compile("\n".join(lines), "<statesum kernel>", "exec"), namespace)
    return namespace["kernel"]
