"""Normal forms of the kernel's normaliser, pinned so that a rewrite of
definitional equality that changes any of them fails here.  Re-record
only for a change that means to alter the equational theory.

Each entry is the first 16 hex digits of the sha256 of the repr of a
normal form, or the rule label of the CheckError raised instead."""

import hashlib
import random

import pytest

from polyqtt.kernel import CheckError, normalize_sigma0, normalize_type
from polyqtt.syntax import Ann, App, BOOL_TY, CtxEntry, Regime

from conftest import CORPUS_FILES, load_corpus
from test_acceptance import _nat_literal
from test_frontend import _random_term

# (file, declaration): (normalize_type of the declared type,
#   normalize_sigma0 of a ^0 body at its type or None,
#   normalize_sigma0 of (body : type) applied to the literals 0, 1 and 7)
CORPUS = {
    ('consfree_iter.qtt', 'flip'): ('07d74b545d84589d', None, ('6e95173fc1e61285', '5d6b212576ba8471', '3a172ae22ab08703')),
    ('consfree_iter.qtt', 'parity1'): ('07127a71c5b1402e', None, ('81e22254e4f35094', '771e7801e6e9603a', '771e7801e6e9603a')),
    ('consfree_iter.qtt', 'flipN'): ('fd3b4d087a869b8a', None, ('e6b45c84ce04fb48', '6728ce1ae7d5d8c3', 'a6d52e05b0bbdad9')),
    ('consfree_iter.qtt', 'sweep2'): ('fd3b4d087a869b8a', None, ('a7271ff382851a6a', '02cf9dfcf89a70f0', 'fcf3447e8de3d6de')),
    ('consfree_iter.qtt', 'nested2'): ('07127a71c5b1402e', None, ('81e22254e4f35094', '771e7801e6e9603a', '771e7801e6e9603a')),
    ('consfree_iter.qtt', 'sweep3'): ('fd3b4d087a869b8a', None, ('4d4e78ba7ff4bbd7', 'c4424a05a6b21b39', 'c7e4d46f355096db')),
    ('consfree_iter.qtt', 'nested3'): ('07127a71c5b1402e', None, ('81e22254e4f35094', '771e7801e6e9603a', '771e7801e6e9603a')),
    ('consfree_iter.qtt', 'comboDup'): ('07127a71c5b1402e', None, ('81e22254e4f35094', '81e22254e4f35094', '81e22254e4f35094')),
    ('consfree_iter.qtt', 'negAcc'): ('07127a71c5b1402e', None, ('81e22254e4f35094', '771e7801e6e9603a', '771e7801e6e9603a')),
    ('consfree_iter.qtt', 'idNat'): ('dd7a4943c8a0d566', None, ('4c11611618b08543', '1a047d44fa2bc019', 'a705f7cc0215da76')),
    ('consfree_iter.qtt', 'altList'): ('d1a36a1895299d8b', None, ('517bd6b2f09a3ae8', 'c2f30c22a50a0845', '2b785a059c4ca546')),
    ('consfree_iter.qtt', 'dupUse'): ('07127a71c5b1402e', None, ('81e22254e4f35094', '771e7801e6e9603a', '771e7801e6e9603a')),
    ('consfree_iter.qtt', 'headOr'): ('07127a71c5b1402e', None, ('771e7801e6e9603a', '81e22254e4f35094', '81e22254e4f35094')),
    ('consfree_zero.qtt', 'two'): ('cbc12e4de7df995f', '79aba9071ac6e031', ('49ec3e35e5da602e', '02f08e5e5c0789f4', '1e77121660b25bb8')),
    ('consfree_zero.qtt', 'add'): ('9e8e069cfc43e5b7', '3145b8fcf2b1c593', ('0c6dc0c179036f56', '81403a04fbff4bd3', '2463553694a83460')),
    ('consfree_zero.qtt', 'mul'): ('9e8e069cfc43e5b7', '47d99e1d700b2e89', ('f1576bb62adedcec', '8565e46e2cbfabd8', 'ca79212c92958291')),
    ('consfree_zero.qtt', 'orList'): ('1d9e37495442fa94', 'd0e66990b2c688f0', ('9e48adf67539234c', 'd9f8f8a3c6a08ff8', '867a9bfc48a48479')),
    ('consfree_zero.qtt', 'dupFst'): ('88c35de841d42724', '0c6dc0c179036f56', ('4c11611618b08543', '1a047d44fa2bc019', 'a705f7cc0215da76')),
    ('consfree_zero.qtt', 'addZeroLeft'): ('cda9f3a40b3d3351', '9fe52385fae056f9', ('96149e8347f291ff', 'b01a6760e675d371', 'ab7da0b4dc56d715')),
    ('lfpl_iter.qtt', 'flip'): ('07d74b545d84589d', None, ('075d48f0409e68bb', '20f09cc707bc6d5b', 'ce8e95f149c0f44b')),
    ('lfpl_iter.qtt', 'step1'): ('fd3b4d087a869b8a', None, ('1c7eeb9e23f956d3', 'd2eb54e9510b8798', '032b7edeb684022e')),
    ('lfpl_iter.qtt', 'rebuild1'): ('dd7a4943c8a0d566', None, ('eae12d6dc97bbeb0', '97485bef835ad46e', 'e8ca64091915156e')),
    ('lfpl_iter.qtt', 'nested2L'): ('dd7a4943c8a0d566', None, ('eae12d6dc97bbeb0', '97485bef835ad46e', 'e8ca64091915156e')),
    ('lfpl_iter.qtt', 'zeroOut'): ('dd7a4943c8a0d566', None, ('eae12d6dc97bbeb0', 'eae12d6dc97bbeb0', 'eae12d6dc97bbeb0')),
    ('lfpl_sort.qtt', 'VecBool'): ('c0e7f15e9d2f3206', '3cc6e573a28c6319', ('d7fedf065fe50521', 'b6cc993d90a63999', '384c5e8c77ce9250')),
    ('lfpl_sort.qtt', 'IListB'): ('bf44a6e63e1bf431', '05bb116db8c569a5', ('49c02fd65ec1d418', '2c248e76fc491a84', 'b375d41dec5913a7')),
    ('lfpl_sort.qtt', 'insert'): ('46414e14c44fd7d3', None, ('c69c0808ecb062a0', '4ac24ac0b02b7991', 'cc3b1d331dabd95f')),
    ('lfpl_sort.qtt', 'isort'): ('c677de13660a1f04', None, ('04185e542ae56cda', 'c9c9fd8b132b1858', '50d64d9d043e9ad9')),
    ('lfpl_sort.qtt', 'buildAlt'): ('ac70febd6885b7a7', None, ('f7156d125c454739', '507413c59f878cc6', 'd1f93c1f5c21ae43')),
    ('lfpl_sort.qtt', 'sortDriver'): ('ac70febd6885b7a7', None, ('f7156d125c454739', '507413c59f878cc6', 'b8b768e1ef93a103')),
    ('reflection.qtt', 'Iff'): ('f2103e6d693edeff', '5d3bd18c7d2b77f1', ('390ac5399a54e113', '91a786622c4cc803', 'cbec7603a1643b30')),
    ('reflection.qtt', 'PTIME'): ('f228d4f8d79faa12', 'a433967eae4f5572', ('15a9eb28613e0adf', '21fb53f321897b78', 'f7e5214902c3f5ee')),
    ('reflection.qtt', 'PolyRed'): ('26bd792c1478b2ac', '825eee7ff3ff3832', ('20fc94940e37d4ec', '20775a4f54d3fff9', 'e953039ce9346567')),
    ('reflection.qtt', 'NP'): ('306a44dddc7f57c1', '733906247f5e395f', ('083c71627091c2d8', 'd036668a9b69b605', 'dba9a56f8b21046d')),
    ('reflection.qtt', 'BPP'): ('0c85106a19f6449d', '676f4ff1032578fd', ('4fe0d9b9d70c23d6', 'dabe864419f1c4d3', '1d021f419bf6d0b1')),
    ('reflection.qtt', 'notR'): ('ab1f7864c270812e', 'ec47bcdd844dfa86', ('f859b115c646503e', '6aa11d6f225936a3', '2d456e9f34b91972')),
    ('reflection.qtt', 'useR'): ('07d74b545d84589d', None, ('6e95173fc1e61285', '5d6b212576ba8471', '3a172ae22ab08703')),
}

# (file, declaration): the normalisation steps (beta-, iota- and
#   projection redexes, the budget's unit) that normalize_sigma0 spends
#   on (body : type) applied to the literals 0, 1 and 7, as CORPUS pins
#   their normal forms
BUDGET = {
    ('consfree_iter.qtt', 'flip'): (1, 1, 1),
    ('consfree_iter.qtt', 'parity1'): (3, 7, 31),
    ('consfree_iter.qtt', 'flipN'): (4, 4, 4),
    ('consfree_iter.qtt', 'sweep2'): (7, 7, 7),
    ('consfree_iter.qtt', 'nested2'): (8, 20, 260),
    ('consfree_iter.qtt', 'sweep3'): (10, 10, 10),
    ('consfree_iter.qtt', 'nested3'): (8, 28, 1828),
    ('consfree_iter.qtt', 'comboDup'): (15, 33, 297),
    ('consfree_iter.qtt', 'negAcc'): (2, 4, 16),
    ('consfree_iter.qtt', 'idNat'): (1, 1, 1),
    ('consfree_iter.qtt', 'altList'): (3, 6, 24),
    ('consfree_iter.qtt', 'dupUse'): (10, 14, 38),
    ('consfree_iter.qtt', 'headOr'): (5, 8, 26),
    ('consfree_zero.qtt', 'two'): (0, 0, 0),
    ('consfree_zero.qtt', 'add'): (2, 3, 9),
    ('consfree_zero.qtt', 'mul'): (2, 5, 23),
    ('consfree_zero.qtt', 'orList'): (1, 1, 1),
    ('consfree_zero.qtt', 'dupFst'): (3, 3, 3),
    ('consfree_zero.qtt', 'addZeroLeft'): (1, 1, 1),
    ('lfpl_iter.qtt', 'flip'): (1, 1, 1),
    ('lfpl_iter.qtt', 'step1'): (2, 2, 2),
    ('lfpl_iter.qtt', 'rebuild1'): (6, 11, 41),
    ('lfpl_iter.qtt', 'nested2L'): (4, 12, 165),
    ('lfpl_iter.qtt', 'zeroOut'): (2, 3, 9),
    ('lfpl_sort.qtt', 'VecBool'): (2, 4, 16),
    ('lfpl_sort.qtt', 'IListB'): (1, 1, 1),
    ('lfpl_sort.qtt', 'insert'): (4, 4, 4),
    ('lfpl_sort.qtt', 'isort'): (10, 10, 10),
    ('lfpl_sort.qtt', 'buildAlt'): (3, 7, 31),
    ('lfpl_sort.qtt', 'sortDriver'): (9, 25, 289),
    ('reflection.qtt', 'Iff'): (1, 1, 1),
    ('reflection.qtt', 'PTIME'): (6, 6, 6),
    ('reflection.qtt', 'PolyRed'): (4, 4, 4),
    ('reflection.qtt', 'NP'): (6, 6, 6),
    ('reflection.qtt', 'BPP'): (4, 4, 4),
    ('reflection.qtt', 'notR'): (0, 0, 0),
    ('reflection.qtt', 'useR'): (3, 3, 3),
}

RANDOM = [
    '210b1e922254fde0', 'a2f532dd92c6a93b', '65310350b051089e', '7e42df488d72b69b',
    'fc17901975543438', 'dab59d349b7b8556', '2296577133a47c21', 'a1169b341cdd8545',
    'e8718191318ee424', '517bd6b2f09a3ae8', '3e05ebc44a508f7e', 'd686c0dc068004c1',
    '0f18552cdd819b35', 'ea93b48978855a54', '0f18552cdd819b35', '5bcd26a0b62c8ede',
    'a2cb378ffd404a24', '897faf53a2f9d697', '8eaac5e526b7419e', '75cc87cbe729408f',
    '0b9b5ab2cdeedf06', '0f18552cdd819b35', 'a7249336de77a1e4', '69b97541c68b657b',
    '97ab26f280fb54c9', '24634491465b09c5', '0f18552cdd819b35', '6b26e12cf25965e4',
    '62867f5599b9d6e4', '6dc481e5c194f6b7', '88612ab044ab8ae8', 'b6a1638d35efa64b',
    'e44cc6e5e668240a', '98afb49a7210b0e4', '106a35ab270b804b', '592cf29bda14aedd',
    '5ece817c3876c344', '69b97541c68b657b', '572cf4ea79cdacd1', '69b97541c68b657b',
    'd9bf6d360d8aa279', '69b97541c68b657b', '771e7801e6e9603a', '0320522dcd8e31a8',
    'd8f36608850599d8', '24c5f63a66a7f6a1', '8c83e84ac48842c2', '9a0a51361162d50b',
    '517bd6b2f09a3ae8', '0f18552cdd819b35', '36e51972d5c8b8b3', '81e22254e4f35094',
    'cd987ba3253495b7', '517bd6b2f09a3ae8', '31ba46cf0ff75f87', '3c642072b1b747b4',
    'e837cb8ff9f7608b', '2f0dd0f3161d0644', 'a2cb378ffd404a24', 'a0a3e60e41f07040',
    '2b936eb9d7c583bb', 'f1b4357c6f3ef08c', '1d7d50c1653b05be', '8acd377678afb813',
    'f7d9089b0a12a056', '517bd6b2f09a3ae8', '4b99429e1f6bb53b', 'a2cb378ffd404a24',
    'd68ed70de5f17cec', '771e7801e6e9603a', 'ea93b48978855a54', '58aea362cd4477ac',
    '517bd6b2f09a3ae8', 'a21630419238bead', 'e44cc6e5e668240a', '0f18552cdd819b35',
    '626bbdd323116610', 'e411161f022a83f3', 'c75f3a60eb21b147', '92a6ee5a18d21e04',
    '4dcc7880b71aec25', '0f18552cdd819b35', '771e7801e6e9603a', 'ebe16aa48d4d16b0',
    '81e22254e4f35094', 'a2cb378ffd404a24', '81e22254e4f35094', '4d2a7f1399a71b37',
    'b59f23d243a38084', '26c0a1e36e8067be', '5c80f2f2f4d40056', 'a2cb378ffd404a24',
    '8b3086ad604dceb7', '8dfd072ecefceab9', '653ad134baf84dfe', '0f18552cdd819b35',
    '69b97541c68b657b', '62867f5599b9d6e4', '0f18552cdd819b35', 'f8bedbe7e1984384',
    '2965a54d4e795e5f', 'c13cdd81c59d021e', 'f1407ee8da030383', '1258e9cc8c55bad9',
    '771e7801e6e9603a', 'bb8cb7c5b27cdd51', '851e3448048226e7', '8b3086ad604dceb7',
    '2b79088eb6932a8a', '0f18552cdd819b35', '75adb8f08b9e4af5', '7a77341bd60f464c',
    '517bd6b2f09a3ae8', 'c69fd902588c8a28', '59de737790cea069', '81e9d14196e22ccb',
    '69b97541c68b657b', '517bd6b2f09a3ae8', '0cc0ad15dffd2b34', '8a0bfa3cce48c480',
    '81e22254e4f35094', 'a2cb378ffd404a24', '022b7a91c9ddb9b3', '362f2e3cbe812cad',
    '517bd6b2f09a3ae8', 'fff087cf231cbce9', '665cd8ff5310e6f0', '78b349e705566725',
    '768edb13c9bf2b1d', 'd510b105b1bf73b2', '69b97541c68b657b', '81e22254e4f35094',
    'b297a57f304d0de0', '69b97541c68b657b', '36e51972d5c8b8b3', '69b97541c68b657b',
    '97cd567463b200ca', 'a2cb378ffd404a24', 'c36b711a0efb0104', 'b73ee7d1a9a7f8e7',
    'fc317b1faea94569', '771e7801e6e9603a', 'c3439fac812992cf', 'c2e5d80b92c8ac8c',
    'fff087cf231cbce9', 'd4e988425d23aa22', '1cfb472c6dd26810', 'a2cb378ffd404a24',
    '4c3e172eb5688e19', '517bd6b2f09a3ae8', 'dfc9004228403238', '771e7801e6e9603a',
    '0f18552cdd819b35', '76557e64797c0190', 'e7c211ccef693824', '7bf3039db63b7978',
    '2ee768d2e85da5c3', 'cc2f2fd9f63cfddd', '0b698e826e2e1584', '560b53e89cd262ca',
    '40941c86e9d75c05', '0f18552cdd819b35', '7ad4a1e0ad7f030f', '7d7fba61c40c9273',
    '04f0aea3679bf129', '6a960ad7f5d43c9e', '0f18552cdd819b35', '30c1654a2516e650',
    'a2cb378ffd404a24', '0f18552cdd819b35', 'e44cc6e5e668240a', '64ea818a9f1251e1',
    '1832f429b37de68c', '2baed2299a9b2042', '69b97541c68b657b', '3e5c55de32cae48d',
    '1da022415e01fb71', 'c5825dafe20571e2', 'dd769d89fa45be2e', '771e7801e6e9603a',
    '71f4dd5c197b7695', 'f8a0932b7efd5806', '00feadc796d79231', '1596cfc7b11fd561',
    '2c44d328ac523c18', '7aa90f6d8af1f778', 'ae5461d98d6f678b', '2d2539e1bdaeea7c',
    'a1a9f83ec93c4b99', '1cd4d7beb1478cf2', 'cc68eeae05453db8', '771e7801e6e9603a',
    '3ca7c0f45bc62685', '568b849558e690bf', '0f18552cdd819b35', 'c610b29a5ec2a156',
    '81e22254e4f35094', '81e22254e4f35094', 'a2cb378ffd404a24', '771e7801e6e9603a',
    '81e22254e4f35094', 'a2cb378ffd404a24', '3f531cc36d829aa9', '3b5276cd47e1a79e',
    '0f18552cdd819b35', '771e7801e6e9603a', 'ff03b87fab78834e', '4bb4536c98d893e3',
    'cb54a575c9975bda', 'ee534ea09e6ca9b7', '69b97541c68b657b', '81e22254e4f35094',
    '36e51972d5c8b8b3', '69b97541c68b657b', '304a7dbbce9332d3', 'a2cb378ffd404a24',
    'c23cde5370f90d77', 'e23fd806d3c6553d', '5f7a32955caaceeb', 'e51c0552a62fc3d5',
    'c24ec18adcea9191', '3714c8b7cfc89322', 'c90ecdc2474984c2', '4f908750dc4ee970',
    'f1596960f4bf590e', '1d6fc70f2b2a3f63', '69b97541c68b657b', '517bd6b2f09a3ae8',
    'a2cb378ffd404a24', '69b97541c68b657b', 'ae544bcb497439bc', 'db40350fceaf103a',
    'c09d43e1cc39b5bb', '4761f3d5a9e2f7f0', 'a2cb378ffd404a24', '4677bf3ea56ae416',
    'd390dff1ac912806', 'bbfef3c9b18ca6d8', '8551adc7c1941b37', '81e22254e4f35094',
    '8b3086ad604dceb7', 'a2cb378ffd404a24', '0975f4a56f6bf904', '4ac25cae33717089',
    '315f4c2dc1a20719', '7c7163889f2590af', '771e7801e6e9603a', '2c89d66d826b4cb4',
    'c29bca9c02af69cb', '69b97541c68b657b', '780ba3d99e20fce2', '99fb17c9e5d6537c',
    '801cee26128a93ce', '517054d7d8a762ea', 'f1b4357c6f3ef08c', '81e22254e4f35094',
    '517bd6b2f09a3ae8', 'd4ee340b27d1cc61', '2b936eb9d7c583bb', '81e22254e4f35094',
    '8bfcf9a4366e42d0', 'a40fdcdb7014af70', 'b0c7ac5fa7f050b6', 'ae5461d98d6f678b',
    'ded7e71311dd3ea8', '69b97541c68b657b', '07044464a197cd2f', '69b97541c68b657b',
    'bdcfc53d78a78e5c', 'f3a60efd69f23430', 'c2ec7f4440b8a5b1', 'c198f9fbc87a3bf1',
    'a2cb378ffd404a24', 'a2cb378ffd404a24', '6ccf8a555bc5e204', '0f18552cdd819b35',
    'e44cc6e5e668240a', 'a2cb378ffd404a24', '339337623e8e5018', 'db2f11b9a3f39900',
    '0f18552cdd819b35', '0ac2b1123127c862', '1e58b8048c78cb84', 'e29666c7b121103d',
    'a2cb378ffd404a24', '7f4c8f432d7570a6', '5b2daf1b645fc649', '29c7507a52fc17c1',
    '501982c2cca68762', '771e7801e6e9603a', '69b97541c68b657b', '61c5167d76108aec',
    '517bd6b2f09a3ae8', 'dafd4a6d3e2bd23b', '888b4ec2fb3ebf2a', '771e7801e6e9603a',
    '71020aa9ce9402d7', '93d735d58c27124d', '287055a05c20caab', '771e7801e6e9603a',
]


def _digest(thunk) -> str:
    try:
        out = thunk()
    except CheckError as e:
        return e.rule
    return hashlib.sha256(repr(out).encode()).hexdigest()[:16]


@pytest.mark.parametrize("file", CORPUS_FILES)
def test_corpus_normal_forms_pinned(file):
    mod = load_corpus(file)
    r = mod.regime
    for d in mod.decls:
        ty = _digest(lambda: normalize_type(d.ty))
        body = None
        if d.sigma == 0:
            body = _digest(lambda: normalize_sigma0(r, (), d.body, d.ty))
        apps = tuple(
            _digest(
                lambda: normalize_sigma0(
                    r, (), App(Ann(d.body, d.ty), _nat_literal(r, n))
                )
            )
            for n in (0, 1, 7)
        )
        assert (ty, body, apps) == CORPUS[(file, d.name)], d.name


def test_random_term_normal_forms_pinned():
    # the terms of test_normalisation_idempotent_on_random_terms
    rng = random.Random(424242)
    ctx = (CtxEntry("a", 0, BOOL_TY), CtxEntry("b", 0, BOOL_TY))
    got = []
    for _ in range(300):
        t = _random_term(rng, 4, 2)
        got.append(
            _digest(
                lambda: normalize_sigma0(Regime.CONS_FREE, ctx, t, budget=20_000)
            )
        )
    assert got == RANDOM


@pytest.mark.parametrize("file", CORPUS_FILES)
def test_corpus_normalisation_budget_pinned(file):
    # the budget counts redexes: exactly the pinned number suffices, and
    # one fewer runs out (an entry that spends nothing has no such bound)
    mod = load_corpus(file)
    r = mod.regime
    for d in mod.decls:
        for n, spent in zip((0, 1, 7), BUDGET[(file, d.name)]):
            applied = App(Ann(d.body, d.ty), _nat_literal(r, n))
            normalize_sigma0(r, (), applied, budget=spent)
            if spent:
                with pytest.raises(CheckError, match=r"^\[Normalize\]"):
                    normalize_sigma0(r, (), applied, budget=spent - 1)
