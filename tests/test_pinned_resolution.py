"""The resolved type and body of every declaration in corpus/ and
fixtures/, under each regime, pinned so that a refactor of the front end
that changes any of them fails here.  Erased declarations and types are
pinned too, which the pins on emitted code do not reach.  The regime
decides how numerals are encoded, so each module is resolved under both
regime overrides, and without an override it must resolve as the override
that names its own pragma.  Re-record only for a change that means to
alter resolution."""

import hashlib

from polyqtt.frontend import parse_module, resolve_module
from polyqtt.syntax import Regime

from conftest import CORPUS, FIXTURES

# (file, regime, declaration): (sha256 of repr(ty), sha256 of repr(body))
PINNED = {
    ('consfree_iter.qtt', 'consfree', 'flip'): (
        '07d74b545d84589db351aaf6774f3776e8437a0bab93fab3b41be1a6db934511',
        '9a66d368364b4db99a9ad016ca55b7b41c1aeac6aa4eaf1770b904c4ceaabc18',
    ),
    ('consfree_iter.qtt', 'consfree', 'parity1'): (
        '07127a71c5b1402e53951dcc20a25812ffdeb16472f1ec7b1f6d6c9104edc647',
        'bf89427d2a6d813e0f259fd5f25668daab399e5bc1f048652907fd06d5ca6282',
    ),
    ('consfree_iter.qtt', 'consfree', 'flipN'): (
        'fd3b4d087a869b8a1555a89e5727f8223d81f2d62610b023637b8c58c8ac2c3b',
        'f2f97f97a893a972d28b401bb91b6eeb4c8d640c0c8719ad4aba644ba743a828',
    ),
    ('consfree_iter.qtt', 'consfree', 'sweep2'): (
        'fd3b4d087a869b8a1555a89e5727f8223d81f2d62610b023637b8c58c8ac2c3b',
        '2587f677c467c5410cfd8efbbb32783b4384e3a3da3124aacb55590aed262645',
    ),
    ('consfree_iter.qtt', 'consfree', 'nested2'): (
        '07127a71c5b1402e53951dcc20a25812ffdeb16472f1ec7b1f6d6c9104edc647',
        '71db416001d3cb27e6c5a9eed9d1187240f138e9448c56db53efaece72607bb1',
    ),
    ('consfree_iter.qtt', 'consfree', 'sweep3'): (
        'fd3b4d087a869b8a1555a89e5727f8223d81f2d62610b023637b8c58c8ac2c3b',
        '14570e1e46a84d046d46a3f1af2c954fcb1acad6383d51bd8852b50dfb96e8f6',
    ),
    ('consfree_iter.qtt', 'consfree', 'nested3'): (
        '07127a71c5b1402e53951dcc20a25812ffdeb16472f1ec7b1f6d6c9104edc647',
        '76ca7c46c014422d48cb7a9b553f5544a2081ae49252393c6b32620cd1ae8d1e',
    ),
    ('consfree_iter.qtt', 'consfree', 'comboDup'): (
        '07127a71c5b1402e53951dcc20a25812ffdeb16472f1ec7b1f6d6c9104edc647',
        '7ec1f2128cc6caa9a9ca70b9bbe04ff9463aff8274426d7867e1cd7de7f5d78d',
    ),
    ('consfree_iter.qtt', 'consfree', 'negAcc'): (
        '07127a71c5b1402e53951dcc20a25812ffdeb16472f1ec7b1f6d6c9104edc647',
        '7ad76313baeaa2d77ece1d3bc2432afde6c430c05c84302506040a42bcce6130',
    ),
    ('consfree_iter.qtt', 'consfree', 'idNat'): (
        'dd7a4943c8a0d566a17d82a86d9599c4d41747a8580ab4e19ee2a54974df3df8',
        '0c6dc0c179036f56d0f7a921fb08faa52c8b3d11fdf37c1d6f7120ba3185ce73',
    ),
    ('consfree_iter.qtt', 'consfree', 'altList'): (
        'd1a36a1895299d8bbc9f3c6f9b4f6ae214adbe5720c10f9f8d9791ee56e62dc7',
        'd84578b73cb07740d6d9d603dd136525d9218c375a018a99abdfd5413f1c91c7',
    ),
    ('consfree_iter.qtt', 'consfree', 'dupUse'): (
        '07127a71c5b1402e53951dcc20a25812ffdeb16472f1ec7b1f6d6c9104edc647',
        'da70a3973ccc52d28d56126f57090e97e964b76b7f72aa1b98bc4be83bc99152',
    ),
    ('consfree_iter.qtt', 'consfree', 'headOr'): (
        '07127a71c5b1402e53951dcc20a25812ffdeb16472f1ec7b1f6d6c9104edc647',
        '27fb0635628581ee9c719ba9107c6463f038bc872e5455fc98da624f4b8460ca',
    ),
    ('consfree_iter.qtt', 'lfpl', 'flip'): (
        '07d74b545d84589db351aaf6774f3776e8437a0bab93fab3b41be1a6db934511',
        '9a66d368364b4db99a9ad016ca55b7b41c1aeac6aa4eaf1770b904c4ceaabc18',
    ),
    ('consfree_iter.qtt', 'lfpl', 'parity1'): (
        '07127a71c5b1402e53951dcc20a25812ffdeb16472f1ec7b1f6d6c9104edc647',
        'bf89427d2a6d813e0f259fd5f25668daab399e5bc1f048652907fd06d5ca6282',
    ),
    ('consfree_iter.qtt', 'lfpl', 'flipN'): (
        'fd3b4d087a869b8a1555a89e5727f8223d81f2d62610b023637b8c58c8ac2c3b',
        'f2f97f97a893a972d28b401bb91b6eeb4c8d640c0c8719ad4aba644ba743a828',
    ),
    ('consfree_iter.qtt', 'lfpl', 'sweep2'): (
        'fd3b4d087a869b8a1555a89e5727f8223d81f2d62610b023637b8c58c8ac2c3b',
        '2587f677c467c5410cfd8efbbb32783b4384e3a3da3124aacb55590aed262645',
    ),
    ('consfree_iter.qtt', 'lfpl', 'nested2'): (
        '07127a71c5b1402e53951dcc20a25812ffdeb16472f1ec7b1f6d6c9104edc647',
        '71db416001d3cb27e6c5a9eed9d1187240f138e9448c56db53efaece72607bb1',
    ),
    ('consfree_iter.qtt', 'lfpl', 'sweep3'): (
        'fd3b4d087a869b8a1555a89e5727f8223d81f2d62610b023637b8c58c8ac2c3b',
        '14570e1e46a84d046d46a3f1af2c954fcb1acad6383d51bd8852b50dfb96e8f6',
    ),
    ('consfree_iter.qtt', 'lfpl', 'nested3'): (
        '07127a71c5b1402e53951dcc20a25812ffdeb16472f1ec7b1f6d6c9104edc647',
        '76ca7c46c014422d48cb7a9b553f5544a2081ae49252393c6b32620cd1ae8d1e',
    ),
    ('consfree_iter.qtt', 'lfpl', 'comboDup'): (
        '07127a71c5b1402e53951dcc20a25812ffdeb16472f1ec7b1f6d6c9104edc647',
        '7ec1f2128cc6caa9a9ca70b9bbe04ff9463aff8274426d7867e1cd7de7f5d78d',
    ),
    ('consfree_iter.qtt', 'lfpl', 'negAcc'): (
        '07127a71c5b1402e53951dcc20a25812ffdeb16472f1ec7b1f6d6c9104edc647',
        '7ad76313baeaa2d77ece1d3bc2432afde6c430c05c84302506040a42bcce6130',
    ),
    ('consfree_iter.qtt', 'lfpl', 'idNat'): (
        'dd7a4943c8a0d566a17d82a86d9599c4d41747a8580ab4e19ee2a54974df3df8',
        '0c6dc0c179036f56d0f7a921fb08faa52c8b3d11fdf37c1d6f7120ba3185ce73',
    ),
    ('consfree_iter.qtt', 'lfpl', 'altList'): (
        'd1a36a1895299d8bbc9f3c6f9b4f6ae214adbe5720c10f9f8d9791ee56e62dc7',
        'd84578b73cb07740d6d9d603dd136525d9218c375a018a99abdfd5413f1c91c7',
    ),
    ('consfree_iter.qtt', 'lfpl', 'dupUse'): (
        '07127a71c5b1402e53951dcc20a25812ffdeb16472f1ec7b1f6d6c9104edc647',
        'da70a3973ccc52d28d56126f57090e97e964b76b7f72aa1b98bc4be83bc99152',
    ),
    ('consfree_iter.qtt', 'lfpl', 'headOr'): (
        '07127a71c5b1402e53951dcc20a25812ffdeb16472f1ec7b1f6d6c9104edc647',
        '27fb0635628581ee9c719ba9107c6463f038bc872e5455fc98da624f4b8460ca',
    ),
    ('consfree_zero.qtt', 'consfree', 'two'): (
        'cbc12e4de7df995f9e67d596075cad2e5eefe608db95db2375b54e6e42422e22',
        '79aba9071ac6e031e99f3139f3037926095e45e97e7e2994d781a6dc24abb048',
    ),
    ('consfree_zero.qtt', 'consfree', 'add'): (
        '9e8e069cfc43e5b721a42285bf488879e4937103a7291e4ba3d6e545699c8452',
        '3145b8fcf2b1c5937d696578841a2d7bfa80d163d2a9bcba32707aa00ef788be',
    ),
    ('consfree_zero.qtt', 'consfree', 'mul'): (
        '9e8e069cfc43e5b721a42285bf488879e4937103a7291e4ba3d6e545699c8452',
        '64af43290bff6dcf14220577b1b3445e3274eed30b283b750c0d900281de8c7c',
    ),
    ('consfree_zero.qtt', 'consfree', 'orList'): (
        '1d9e37495442fa94a1414be6cba17ced186616dc589cb8f43e6954bf382066c7',
        'd0e66990b2c688f0e1de5fa862b252313644598fddb33b4426b5825415df2204',
    ),
    ('consfree_zero.qtt', 'consfree', 'dupFst'): (
        '88c35de841d42724bb0c67d7453431f9bd628e0b3ded004124b296cc22566671',
        '991fcf53fffa820346ea4357edd5f72fff36468c6ab184f95d005f27da5788ae',
    ),
    ('consfree_zero.qtt', 'consfree', 'addZeroLeft'): (
        '7648e495e944b5e5a1f842bff1fa7241c1c6293807eeb3e1d5f702328b9af0e5',
        '9fe52385fae056f9496173396339fd9fe68c3941512402e58ba9d856b93abf1e',
    ),
    ('consfree_zero.qtt', 'lfpl', 'two'): (
        'cbc12e4de7df995f9e67d596075cad2e5eefe608db95db2375b54e6e42422e22',
        '79aba9071ac6e031e99f3139f3037926095e45e97e7e2994d781a6dc24abb048',
    ),
    ('consfree_zero.qtt', 'lfpl', 'add'): (
        '9e8e069cfc43e5b721a42285bf488879e4937103a7291e4ba3d6e545699c8452',
        '3145b8fcf2b1c5937d696578841a2d7bfa80d163d2a9bcba32707aa00ef788be',
    ),
    ('consfree_zero.qtt', 'lfpl', 'mul'): (
        '9e8e069cfc43e5b721a42285bf488879e4937103a7291e4ba3d6e545699c8452',
        '64af43290bff6dcf14220577b1b3445e3274eed30b283b750c0d900281de8c7c',
    ),
    ('consfree_zero.qtt', 'lfpl', 'orList'): (
        '1d9e37495442fa94a1414be6cba17ced186616dc589cb8f43e6954bf382066c7',
        'd0e66990b2c688f0e1de5fa862b252313644598fddb33b4426b5825415df2204',
    ),
    ('consfree_zero.qtt', 'lfpl', 'dupFst'): (
        '88c35de841d42724bb0c67d7453431f9bd628e0b3ded004124b296cc22566671',
        '991fcf53fffa820346ea4357edd5f72fff36468c6ab184f95d005f27da5788ae',
    ),
    ('consfree_zero.qtt', 'lfpl', 'addZeroLeft'): (
        '7648e495e944b5e5a1f842bff1fa7241c1c6293807eeb3e1d5f702328b9af0e5',
        '9fe52385fae056f9496173396339fd9fe68c3941512402e58ba9d856b93abf1e',
    ),
    ('lfpl_iter.qtt', 'consfree', 'flip'): (
        '07d74b545d84589db351aaf6774f3776e8437a0bab93fab3b41be1a6db934511',
        '9a66d368364b4db99a9ad016ca55b7b41c1aeac6aa4eaf1770b904c4ceaabc18',
    ),
    ('lfpl_iter.qtt', 'consfree', 'step1'): (
        'fd3b4d087a869b8a1555a89e5727f8223d81f2d62610b023637b8c58c8ac2c3b',
        '21f19113af8e17f7361870b4edb946b5aedaefc432a67b5dc3063ef83fe1df56',
    ),
    ('lfpl_iter.qtt', 'consfree', 'rebuild1'): (
        'dd7a4943c8a0d566a17d82a86d9599c4d41747a8580ab4e19ee2a54974df3df8',
        '9f0f7b5a007947a1cee287b10e3e59b1e15e1bdcaef74a1835cee246cae2fca8',
    ),
    ('lfpl_iter.qtt', 'consfree', 'nested2L'): (
        'dd7a4943c8a0d566a17d82a86d9599c4d41747a8580ab4e19ee2a54974df3df8',
        '8f0dabc98a6aa388bf4cabf1b2f356fe2e871bce2616488cd9f67f122702ab7d',
    ),
    ('lfpl_iter.qtt', 'consfree', 'zeroOut'): (
        'dd7a4943c8a0d566a17d82a86d9599c4d41747a8580ab4e19ee2a54974df3df8',
        '1c744d35e7e6e6544e9ff007c7e5727242f63ee495163033ccd4306fdba46188',
    ),
    ('lfpl_iter.qtt', 'lfpl', 'flip'): (
        '07d74b545d84589db351aaf6774f3776e8437a0bab93fab3b41be1a6db934511',
        '9a66d368364b4db99a9ad016ca55b7b41c1aeac6aa4eaf1770b904c4ceaabc18',
    ),
    ('lfpl_iter.qtt', 'lfpl', 'step1'): (
        'fd3b4d087a869b8a1555a89e5727f8223d81f2d62610b023637b8c58c8ac2c3b',
        '21f19113af8e17f7361870b4edb946b5aedaefc432a67b5dc3063ef83fe1df56',
    ),
    ('lfpl_iter.qtt', 'lfpl', 'rebuild1'): (
        'dd7a4943c8a0d566a17d82a86d9599c4d41747a8580ab4e19ee2a54974df3df8',
        '9f0f7b5a007947a1cee287b10e3e59b1e15e1bdcaef74a1835cee246cae2fca8',
    ),
    ('lfpl_iter.qtt', 'lfpl', 'nested2L'): (
        'dd7a4943c8a0d566a17d82a86d9599c4d41747a8580ab4e19ee2a54974df3df8',
        '8f0dabc98a6aa388bf4cabf1b2f356fe2e871bce2616488cd9f67f122702ab7d',
    ),
    ('lfpl_iter.qtt', 'lfpl', 'zeroOut'): (
        'dd7a4943c8a0d566a17d82a86d9599c4d41747a8580ab4e19ee2a54974df3df8',
        '1c744d35e7e6e6544e9ff007c7e5727242f63ee495163033ccd4306fdba46188',
    ),
    ('lfpl_sort.qtt', 'consfree', 'VecBool'): (
        'c0e7f15e9d2f3206a4583c9c34245daf03de542c028f70db00378281c90dbd8b',
        '3cc6e573a28c631982ba80349a5c823eef75e225639fdeeaf9d76386f7e085c0',
    ),
    ('lfpl_sort.qtt', 'consfree', 'IListB'): (
        'bf44a6e63e1bf431ed7a4f9965f35029e066eef6381976c3e6af0de9cbd4d428',
        '13d16f106a1904f341d891574246acb4f3c6500cc5886842803cee77f4521eba',
    ),
    ('lfpl_sort.qtt', 'consfree', 'insert'): (
        '46d5397bb2b78667360495421527f1fcf9eb6535e9f51a75b0f46a9b602e4a77',
        'b0bb185aa299e578505ee00da301a6b9674d278b332796324a07d5a7786208df',
    ),
    ('lfpl_sort.qtt', 'consfree', 'isort'): (
        'ccaf4e1ba9afebfbd9e9ea58ac4c13f64018e7ac451c6a4f19cf44cab371f5e0',
        '28368b83cbb9d132ce5c3ccf80b224a87ec85fe71a47af27f2d02317e4cbbf89',
    ),
    ('lfpl_sort.qtt', 'consfree', 'buildAlt'): (
        '3c037d87ceb26037331b57244da8b10b927fd72f25f203a77fb617de79fd8004',
        'bd14535e9bef205d3c6c4fcb556743d9bb7169946c6759fec58340e9357c93d0',
    ),
    ('lfpl_sort.qtt', 'consfree', 'sortDriver'): (
        '3c037d87ceb26037331b57244da8b10b927fd72f25f203a77fb617de79fd8004',
        'bd7019115ce7e7850bfbc54a96d076d84a2da0e7d92016e5037ca41a05740088',
    ),
    ('lfpl_sort.qtt', 'lfpl', 'VecBool'): (
        'c0e7f15e9d2f3206a4583c9c34245daf03de542c028f70db00378281c90dbd8b',
        '3cc6e573a28c631982ba80349a5c823eef75e225639fdeeaf9d76386f7e085c0',
    ),
    ('lfpl_sort.qtt', 'lfpl', 'IListB'): (
        'bf44a6e63e1bf431ed7a4f9965f35029e066eef6381976c3e6af0de9cbd4d428',
        '13d16f106a1904f341d891574246acb4f3c6500cc5886842803cee77f4521eba',
    ),
    ('lfpl_sort.qtt', 'lfpl', 'insert'): (
        '46d5397bb2b78667360495421527f1fcf9eb6535e9f51a75b0f46a9b602e4a77',
        'b0bb185aa299e578505ee00da301a6b9674d278b332796324a07d5a7786208df',
    ),
    ('lfpl_sort.qtt', 'lfpl', 'isort'): (
        'ccaf4e1ba9afebfbd9e9ea58ac4c13f64018e7ac451c6a4f19cf44cab371f5e0',
        '28368b83cbb9d132ce5c3ccf80b224a87ec85fe71a47af27f2d02317e4cbbf89',
    ),
    ('lfpl_sort.qtt', 'lfpl', 'buildAlt'): (
        '3c037d87ceb26037331b57244da8b10b927fd72f25f203a77fb617de79fd8004',
        'bd14535e9bef205d3c6c4fcb556743d9bb7169946c6759fec58340e9357c93d0',
    ),
    ('lfpl_sort.qtt', 'lfpl', 'sortDriver'): (
        '3c037d87ceb26037331b57244da8b10b927fd72f25f203a77fb617de79fd8004',
        'bd7019115ce7e7850bfbc54a96d076d84a2da0e7d92016e5037ca41a05740088',
    ),
    ('reflection.qtt', 'consfree', 'Iff'): (
        'f2103e6d693edeff0c61eb85e5c7f14c524d84d34880964930043aa6d80fbe24',
        '5d3bd18c7d2b77f1e7b92eec56f411ad1a186341df5ff74327cdba7c3c465de0',
    ),
    ('reflection.qtt', 'consfree', 'PTIME'): (
        'f228d4f8d79faa122353df986d929e9c2690e889b4b4f4b1833bc9eb0f2024e0',
        'a271b35a7240a59a8445bd4637eb639e9ce31872225c5907fb8849dd3f683505',
    ),
    ('reflection.qtt', 'consfree', 'PolyRed'): (
        '26bd792c1478b2ac362e44460e0b41a3277dbc39d6fd3e0e2759fc57ff5808b4',
        '3bc942648274dd61c7fe9b876a44de9e00c61bfaeee0aa0a251e32c579e23f67',
    ),
    ('reflection.qtt', 'consfree', 'NP'): (
        '306a44dddc7f57c150a0e35b081d305495fa92306908e9eb631d0db7e66dc9e0',
        '0a7d7e686b9e9f4d33aa9b2da000e6a20bba10a3aa00b20993f79209a77711fb',
    ),
    ('reflection.qtt', 'consfree', 'BPP'): (
        '0c85106a19f6449d765fa8d030c0f6f1ff1c16f216d19542d644d20aeebf5386',
        '61643fbcb4c52cccabe121ebee7ed722048a0cde978e64bb5a90cda7840ddb2c',
    ),
    ('reflection.qtt', 'consfree', 'notR'): (
        'ab1f7864c270812ed2cbdc3379b218807a79c582e28142277d8fa699c57fa80b',
        'ec47bcdd844dfa86773a6496a702ff32df4f61d032e75c7e8154e6e0066dde7c',
    ),
    ('reflection.qtt', 'consfree', 'useR'): (
        '07d74b545d84589db351aaf6774f3776e8437a0bab93fab3b41be1a6db934511',
        'c07eb357645140e8df279be5f6fa869275fc5c3692377b56472fece6d45a22ac',
    ),
    ('reflection.qtt', 'lfpl', 'Iff'): (
        'f2103e6d693edeff0c61eb85e5c7f14c524d84d34880964930043aa6d80fbe24',
        '5d3bd18c7d2b77f1e7b92eec56f411ad1a186341df5ff74327cdba7c3c465de0',
    ),
    ('reflection.qtt', 'lfpl', 'PTIME'): (
        'f228d4f8d79faa122353df986d929e9c2690e889b4b4f4b1833bc9eb0f2024e0',
        'a271b35a7240a59a8445bd4637eb639e9ce31872225c5907fb8849dd3f683505',
    ),
    ('reflection.qtt', 'lfpl', 'PolyRed'): (
        '26bd792c1478b2ac362e44460e0b41a3277dbc39d6fd3e0e2759fc57ff5808b4',
        '3bc942648274dd61c7fe9b876a44de9e00c61bfaeee0aa0a251e32c579e23f67',
    ),
    ('reflection.qtt', 'lfpl', 'NP'): (
        '306a44dddc7f57c150a0e35b081d305495fa92306908e9eb631d0db7e66dc9e0',
        '0a7d7e686b9e9f4d33aa9b2da000e6a20bba10a3aa00b20993f79209a77711fb',
    ),
    ('reflection.qtt', 'lfpl', 'BPP'): (
        '0c85106a19f6449d765fa8d030c0f6f1ff1c16f216d19542d644d20aeebf5386',
        '61643fbcb4c52cccabe121ebee7ed722048a0cde978e64bb5a90cda7840ddb2c',
    ),
    ('reflection.qtt', 'lfpl', 'notR'): (
        'ab1f7864c270812ed2cbdc3379b218807a79c582e28142277d8fa699c57fa80b',
        'ec47bcdd844dfa86773a6496a702ff32df4f61d032e75c7e8154e6e0066dde7c',
    ),
    ('reflection.qtt', 'lfpl', 'useR'): (
        '07d74b545d84589db351aaf6774f3776e8437a0bab93fab3b41be1a6db934511',
        'c07eb357645140e8df279be5f6fa869275fc5c3692377b56472fece6d45a22ac',
    ),
    ('bad_double_use.qtt', 'consfree', 'f'): (
        'ee683de94f99daf05a768da369db64e4244beaa9cf6e075a3108f22dce1606ce',
        '5fc0583b92a1392913deaabc091f373b91d01165658008ac863a9179ba2e9a63',
    ),
    ('bad_double_use.qtt', 'lfpl', 'f'): (
        'ee683de94f99daf05a768da369db64e4244beaa9cf6e075a3108f22dce1606ce',
        '5fc0583b92a1392913deaabc091f373b91d01165658008ac863a9179ba2e9a63',
    ),
    ('cf_rec_under_lfpl.qtt', 'consfree', 'f'): (
        '07127a71c5b1402e53951dcc20a25812ffdeb16472f1ec7b1f6d6c9104edc647',
        '410115c61585f47134b314797c36a28a3b5fe9e938c18d73c65ca6976f51813f',
    ),
    ('cf_rec_under_lfpl.qtt', 'lfpl', 'f'): (
        '07127a71c5b1402e53951dcc20a25812ffdeb16472f1ec7b1f6d6c9104edc647',
        '410115c61585f47134b314797c36a28a3b5fe9e938c18d73c65ca6976f51813f',
    ),
    ('consfree_succ_sigma1.qtt', 'consfree', 'f'): (
        'dd7a4943c8a0d566a17d82a86d9599c4d41747a8580ab4e19ee2a54974df3df8',
        '81403a04fbff4bd363bf9b88d1f629501d45ebdb7ccedddb1bf5822c2dbbf634',
    ),
    ('consfree_succ_sigma1.qtt', 'lfpl', 'f'): (
        'dd7a4943c8a0d566a17d82a86d9599c4d41747a8580ab4e19ee2a54974df3df8',
        '81403a04fbff4bd363bf9b88d1f629501d45ebdb7ccedddb1bf5822c2dbbf634',
    ),
    ('conversion_mismatch.qtt', 'consfree', 'f'): (
        '0559cfefa6b71690582906550b57df5af8e8b0a431a84e8c60bf8727ed6e086a',
        '0f18552cdd819b353d8febcb3261ae4033d73e0a816e1d507b19b27c1f941a43',
    ),
    ('conversion_mismatch.qtt', 'lfpl', 'f'): (
        '0559cfefa6b71690582906550b57df5af8e8b0a431a84e8c60bf8727ed6e086a',
        '0f18552cdd819b353d8febcb3261ae4033d73e0a816e1d507b19b27c1f941a43',
    ),
    ('diamondstar_sigma1.qtt', 'consfree', 'f'): (
        '8c94b4054102448471ef8cfd8dda2877c34d0e417ec424587da225eab9a9bcca',
        '1e66adda58fa67de9f909bce6ef4e6b1368625a19afea1b7247bef02e0cdea97',
    ),
    ('diamondstar_sigma1.qtt', 'lfpl', 'f'): (
        '8c94b4054102448471ef8cfd8dda2877c34d0e417ec424587da225eab9a9bcca',
        '1e66adda58fa67de9f909bce6ef4e6b1368625a19afea1b7247bef02e0cdea97',
    ),
    ('dupnat_under_lfpl.qtt', 'consfree', 'f'): (
        '121c421d4b56d9cec64ab9a975bbc9d9756bd738f6ebfe66c767827a1ee615b9',
        'c2733bca33b90b9868afd6f79ac60e09d4d4111620ce5734e013a2cf420c1f3c',
    ),
    ('dupnat_under_lfpl.qtt', 'lfpl', 'f'): (
        '121c421d4b56d9cec64ab9a975bbc9d9756bd738f6ebfe66c767827a1ee615b9',
        'c2733bca33b90b9868afd6f79ac60e09d4d4111620ce5734e013a2cf420c1f3c',
    ),
    ('function_dup.qtt', 'consfree', 'f'): (
        'e859ee6ab8fb88772da8d421dbd9c0ee824dbd4e77bc7e9e24ad4e608b458c88',
        '5424c9b38b8c603994c961380290b74e5d5bc01f82186adb73c3a7a3f35d0a13',
    ),
    ('function_dup.qtt', 'lfpl', 'f'): (
        'e859ee6ab8fb88772da8d421dbd9c0ee824dbd4e77bc7e9e24ad4e608b458c88',
        '5424c9b38b8c603994c961380290b74e5d5bc01f82186adb73c3a7a3f35d0a13',
    ),
    ('lfpl_rec_under_consfree.qtt', 'consfree', 'f'): (
        'dd7a4943c8a0d566a17d82a86d9599c4d41747a8580ab4e19ee2a54974df3df8',
        '90766fe25c7c7eb96bf5fb8061edf1548afbda641fab1303b9b8c3044aee3a3c',
    ),
    ('lfpl_rec_under_consfree.qtt', 'lfpl', 'f'): (
        'dd7a4943c8a0d566a17d82a86d9599c4d41747a8580ab4e19ee2a54974df3df8',
        '90766fe25c7c7eb96bf5fb8061edf1548afbda641fab1303b9b8c3044aee3a3c',
    ),
    ('lfpl_succ_under_consfree.qtt', 'consfree', 'f'): (
        'cbc12e4de7df995f9e67d596075cad2e5eefe608db95db2375b54e6e42422e22',
        '3b7fbc4efa6c1b2e2b8f016caf6428b7dc6ae60d32f0011b22ee36c9ea918cf0',
    ),
    ('lfpl_succ_under_consfree.qtt', 'lfpl', 'f'): (
        'cbc12e4de7df995f9e67d596075cad2e5eefe608db95db2375b54e6e42422e22',
        '3b7fbc4efa6c1b2e2b8f016caf6428b7dc6ae60d32f0011b22ee36c9ea918cf0',
    ),
    ('lfpl_zero_under_consfree.qtt', 'consfree', 'f'): (
        'cbc12e4de7df995f9e67d596075cad2e5eefe608db95db2375b54e6e42422e22',
        '07b6ce605e219f6e84695798446bdb46091aeb2dd185e2c4127bf65d6ad8d1b1',
    ),
    ('lfpl_zero_under_consfree.qtt', 'lfpl', 'f'): (
        'cbc12e4de7df995f9e67d596075cad2e5eefe608db95db2375b54e6e42422e22',
        '07b6ce605e219f6e84695798446bdb46091aeb2dd185e2c4127bf65d6ad8d1b1',
    ),
    ('rec_branch_ambient.qtt', 'consfree', 'f'): (
        '4d6f240828a14ad6497be9214e15e47a3c5b499f09d44c31c8d5ff333adb61b4',
        '51b0a817aabce169c6d337a718031b4fb12fdef742057966cb766030576e42b3',
    ),
    ('rec_branch_ambient.qtt', 'lfpl', 'f'): (
        '4d6f240828a14ad6497be9214e15e47a3c5b499f09d44c31c8d5ff333adb61b4',
        '51b0a817aabce169c6d337a718031b4fb12fdef742057966cb766030576e42b3',
    ),
    ('reclist_sigma1.qtt', 'consfree', 'f'): (
        '520e0587cec8708a5d7a84ccc3a025d7125b5bd44310b90e4096b654eba52c7e',
        '40a9fd39ec8d4e91b5fa6626b7efbbcdbbe30168755dfe0beb2a8aabece78cef',
    ),
    ('reclist_sigma1.qtt', 'lfpl', 'f'): (
        '520e0587cec8708a5d7a84ccc3a025d7125b5bd44310b90e4096b654eba52c7e',
        '40a9fd39ec8d4e91b5fa6626b7efbbcdbbe30168755dfe0beb2a8aabece78cef',
    ),
    ('regime_mismatch_type.qtt', 'consfree', 'f'): (
        'c1d34c618084711655e4c9abf86b588124260b42ae450769ae334c2233d085c5',
        '287055a05c20caabe3f974360e8c853ef5cdc5b5b8b5cc50cf66637c129a32d0',
    ),
    ('regime_mismatch_type.qtt', 'lfpl', 'f'): (
        'c1d34c618084711655e4c9abf86b588124260b42ae450769ae334c2233d085c5',
        '287055a05c20caabe3f974360e8c853ef5cdc5b5b8b5cc50cf66637c129a32d0',
    ),
    ('usage_undershoot.qtt', 'consfree', 'f'): (
        'e2215ab76fe17ccacf7f270563a4715a3d917d46f1233eb5cf68dce4f55c1ae3',
        '0c6dc0c179036f56d0f7a921fb08faa52c8b3d11fdf37c1d6f7120ba3185ce73',
    ),
    ('usage_undershoot.qtt', 'lfpl', 'f'): (
        'e2215ab76fe17ccacf7f270563a4715a3d917d46f1233eb5cf68dce4f55c1ae3',
        '0c6dc0c179036f56d0f7a921fb08faa52c8b3d11fdf37c1d6f7120ba3185ce73',
    ),
}


def _sha(node) -> str:
    return hashlib.sha256(repr(node).encode()).hexdigest()


def test_resolved_types_and_bodies_are_pinned():
    seen = {}
    for path in sorted([*CORPUS.glob("*.qtt"), *FIXTURES.glob("*.qtt")]):
        mod = parse_module(path.read_text())
        for regime in Regime:
            for d in resolve_module(mod, regime).decls:
                seen[path.name, regime.value, d.name] = (_sha(d.ty), _sha(d.body))
        own = resolve_module(mod)
        for d in own.decls:
            key = (path.name, own.regime.value, d.name)
            assert (_sha(d.ty), _sha(d.body)) == seen[key], key
    assert seen == PINNED
