"""Emitted code, potential and input arity of every runtime declaration in
corpus/, pinned so that a refactor of the checker or the compiler that
changes any of them fails here.  Re-record only for a change that means
to alter emitted code."""

import hashlib

from polyqtt.machine import expr_to_sexp

from conftest import CORPUS, compiled, load_corpus

# (file, declaration): (sha256 of expr_to_sexp(code), coefficients, arity)
PINNED = {
    ('consfree_iter.qtt', 'flip'): (
        '64e74885619176c4a902335180c97257c836504718885f06ad5a5fd12791af46',
        (5,), 0,
    ),
    ('consfree_iter.qtt', 'parity1'): (
        'f338a358cf8321c0137195f0b427d261242671a930a7492c636dc8385ab2330b',
        (16, 20), 1,
    ),
    ('consfree_iter.qtt', 'flipN'): (
        '6a16c12044578fe961c930d2a7fce217d079de596e134367211d2f01391c5b6a',
        (24, 20), 0,
    ),
    ('consfree_iter.qtt', 'sweep2'): (
        '5d177b96b36c993e528aab7c6fc79cffa62b563ab61701169f2a662d35568fe6',
        (24, 39, 20), 0,
    ),
    ('consfree_iter.qtt', 'nested2'): (
        '7b09c7aa9025801c6aa5d76efa353709c13a117e1810ababd909f29d698045fb',
        (38, 39, 20), 1,
    ),
    ('consfree_iter.qtt', 'sweep3'): (
        '4fa635605d0c2de0434119134015e4add567bd717e712bc5414743c03b759a35',
        (24, 39, 39, 20), 0,
    ),
    ('consfree_iter.qtt', 'nested3'): (
        '6686a3e4bd076d11d108528e392bbb28f01f1be987e06a3ea229189776ae4a50',
        (38, 39, 39, 20), 1,
    ),
    ('consfree_iter.qtt', 'comboDup'): (
        'f207ac25fd1e119a4f5a78922097ee4a5c1593a7c5099b68faa5d6c27b1e67a7',
        (74, 59, 20), 1,
    ),
    ('consfree_iter.qtt', 'negAcc'): (
        '1e47492056910089e554cf495706458d6f34339ad5e90a0b8fb43b4b7d861fb0',
        (11, 10), 1,
    ),
    ('consfree_iter.qtt', 'idNat'): (
        '3809c0c3489834cfa7d6afeebc654d41d0298a6ffd8f49d364068674ee3e84b6',
        (4,), 1,
    ),
    ('consfree_iter.qtt', 'altList'): (
        'ff3610c0ff081f81ff0a0995d415fca792547181d674003105c70a9a73b88008',
        (22, 25), 1,
    ),
    ('consfree_iter.qtt', 'dupUse'): (
        '8e2cf258d85fd6b440cfe4d809d2553709f63749d3f50e17e5e6d6cb3a69bd3d',
        (48, 20), 1,
    ),
    ('consfree_iter.qtt', 'headOr'): (
        '1265c984f80e4fc7c6d2864b18dbab1351796c7a3676deec0aa540a2eb2be6b8',
        (32, 25), 1,
    ),
    ('lfpl_iter.qtt', 'flip'): (
        '64e74885619176c4a902335180c97257c836504718885f06ad5a5fd12791af46',
        (5,), 0,
    ),
    ('lfpl_iter.qtt', 'step1'): (
        'bf0c76f7da3ff8ec8f0a6d8c794b5e17a7717a06ee4fc91b0d31ac8a5ca4fef3',
        (27, 35), 0,
    ),
    ('lfpl_iter.qtt', 'rebuild1'): (
        '2b689dffcf04cb0a6f085135f69c8fe888325c96b5ed61985a498d8fa3adb0ae',
        (41, 35), 1,
    ),
    ('lfpl_iter.qtt', 'nested2L'): (
        '9d1f48779848b6e02d11634b37b84728a945b8672245ce7e02cd815273da4fdf',
        (29, 64, 35), 1,
    ),
    ('lfpl_iter.qtt', 'zeroOut'): (
        '325fcc0f9f39b311bc7879a057fd298bf55224ce0784ae48981d2e316344fde2',
        (17, 13), 1,
    ),
    ('lfpl_sort.qtt', 'insert'): (
        '95debf4d385ad129151cc089b94c36dbcae2472a8d87a1c05247cca943b8c6c3',
        (51, 54), 0,
    ),
    ('lfpl_sort.qtt', 'isort'): (
        '7a3b5e358148e47ef7290bff1b71078b59f71bfb3662d490c19b107368c11f0c',
        (29, 79, 54), 0,
    ),
    ('lfpl_sort.qtt', 'buildAlt'): (
        '357ca0cb0f657214a02801d3f16e4693301a9f29dcd50ceba64f9cebcef8c55a',
        (28, 36), 1,
    ),
    ('lfpl_sort.qtt', 'sortDriver'): (
        '55c6b5966857c4c7176618c0ef9dd1652c8cdc62820ae2b909952d900a9d1cf3',
        (65, 115, 54), 1,
    ),
    ('reflection.qtt', 'useR'): (
        '2bbbd420a24d3c4fc9fc5ce6c5c2103301f0832e94d9348bccca34c50f741f03',
        (10,), 0,
    ),
}


def test_corpus_code_potential_and_arity_are_pinned():
    seen = {}
    for path in sorted(CORPUS.glob("*.qtt")):
        for d in load_corpus(path.name).decls:
            if d.sigma != 1:
                continue
            p = compiled(path.name, d.name)
            sha = hashlib.sha256(expr_to_sexp(p.code).encode()).hexdigest()
            coeffs = tuple(p.potential.coeffs)
            seen[path.name, d.name] = (sha, coeffs, p.input_arity)
    assert seen == PINNED
