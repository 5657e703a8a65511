"""Report bytes of float states and exact Gaussian seven-mode states.

The benchmark checks float reports only by label and spectrum, so these
sha256 digests of stdout are what guards their bytes.  They were recorded
before `GaussianRational` parts became plain ints when integral, on CPython
3.11; they depend on the order of every float sum in the library.

Cases: a float copy of every six- to nine-mode canonical row, under
``classify``, ``classify --real`` (six modes) and ``rdm``, and every exact
canonical seven-mode row (Gaussian-integer coefficients) under ``classify``
and ``rdm``.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

from trivec.cli import main, state_document
from trivec.exterior import canonical_state

ROWS = {
    6: ("Null", "Sep", "Bisep", "W", "GHZ", "GHZ+", "GHZ-"),
    7: ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X"),
    8: ("XI", "XII", "XIII", "XIV", "XV", "XVI", "XVII", "XVIII", "XIX",
        "XX", "XXI", "XXII", "XXIII"),
    9: tuple(f"family{k}" for k in range(1, 8)),
}
PARAMS = {"family1": (1, 2, 4, 8), "family2": (1, 2, 3), "family3": (1, 2),
          "family4": (1, 2), "family5": (1,), "family6": (1,)}


def cases():
    """(key, state, scalar mode, command) for every recorded report."""
    out = []
    for dim, rows in ROWS.items():
        for row in rows:
            p = canonical_state(dim, row, PARAMS.get(row, ()))
            copies = [("float", p.to_float())]
            if dim == 7:
                copies.append(("rational", p))
            for mode, q in copies:
                cmds = [("classify",)]
                if dim == 6:
                    cmds.append(("classify", "--real"))
                if not q.is_zero():
                    cmds.append(("rdm",))
                for cmd in cmds:
                    out.append((f"{dim}:{row}:{mode}:{' '.join(cmd)}", q, mode, cmd))
    return out


def digests(tmp_dir):
    """{case key: sha256 of stdout} from one in-process run per case."""
    out = {}
    for key, q, mode, cmd in cases():
        path = f"{tmp_dir}/{key.replace(':', '_').replace(' ', '_')}.json"
        with open(path, "w") as fh:
            json.dump(state_document(q, mode), fh)
        buf = io.StringIO()
        with redirect_stdout(buf):
            main([cmd[0], "--input", path] + list(cmd[1:]))
        out[key] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


GOLDEN = {
    '6:Null:float:classify':
        'b68f3eb23743e01108dd4bcb4edb9a1c5aae19f045d356862181951ce1c585bc',
    '6:Null:float:classify --real':
        'b68f3eb23743e01108dd4bcb4edb9a1c5aae19f045d356862181951ce1c585bc',
    '6:Sep:float:classify':
        'ee069f1d53731bdb1acfb6b7bf65ffdecd5aa01dc297e4bab38c2727667562a8',
    '6:Sep:float:classify --real':
        'ee069f1d53731bdb1acfb6b7bf65ffdecd5aa01dc297e4bab38c2727667562a8',
    '6:Sep:float:rdm':
        'a800bb21a64cac67eaaa3362a491ac1e522748c22c21ab1425474ccb67918810',
    '6:Bisep:float:classify':
        'bf758d9bc34300687d15c0bc744c93fe9dc58b751dcedc71f6ff5bb886abd203',
    '6:Bisep:float:classify --real':
        'bf758d9bc34300687d15c0bc744c93fe9dc58b751dcedc71f6ff5bb886abd203',
    '6:Bisep:float:rdm':
        '7b32fe757d4b73e1e768706db1da0b2c1e4d90766cefe8465c4751720d5855ae',
    '6:W:float:classify':
        '686906b625d1b6cdbdccd3db4a9d3b610731a1342db1e7c970eba3fafad18508',
    '6:W:float:classify --real':
        '686906b625d1b6cdbdccd3db4a9d3b610731a1342db1e7c970eba3fafad18508',
    '6:W:float:rdm':
        '45b718cf5bc4396e7480b07fa7a38928e2500b0cbbfc48e2e64e396f62e4cec4',
    '6:GHZ:float:classify':
        '243d36a42196adb30d19dcdcad51f7a968e9b558f6c01ab583b7a73160f82c71',
    '6:GHZ:float:classify --real':
        'e96f57ddd94f7d78f5e8624775a0855a13d13013f715728f8f7b64598804d621',
    '6:GHZ:float:rdm':
        'c87067ba481ef0fab8335be39ffd5b8c7ac19d9e2fd2cb2ca2d8f4365e684bdc',
    '6:GHZ+:float:classify':
        'b7a614689a39fe2d4d7f221dca83cd7e2196ce5aa28126b0419df0aa1cd8ba87',
    '6:GHZ+:float:classify --real':
        '8743121fab7ea4a134a35258105403a29989519f846004ba87fcf7b40fb643c0',
    '6:GHZ+:float:rdm':
        'c87067ba481ef0fab8335be39ffd5b8c7ac19d9e2fd2cb2ca2d8f4365e684bdc',
    '6:GHZ-:float:classify':
        '5014a8cf2c3efec6654c11b82eb51cf774162788c656cc74093a62b9f31534a5',
    '6:GHZ-:float:classify --real':
        'a2d2ac5f47bd3181dc907040d7f695d95a68381f4f97f7ffdd27dccddc4d08a0',
    '6:GHZ-:float:rdm':
        'c87067ba481ef0fab8335be39ffd5b8c7ac19d9e2fd2cb2ca2d8f4365e684bdc',
    '7:I:float:classify':
        'f85ef44694d8de50209f48b89e3af03c4fb9e886d0b705d86544064add665946',
    '7:I:rational:classify':
        '1f046dc79dd9531db1acf67c0c17aeeab71a9c256a1f53321db7eeb318a2d222',
    '7:II:float:classify':
        'de9f4a7ed73ec8727bd34f4fb4a47a36ef3dc723c83b0c84b2230eb393acae3b',
    '7:II:float:rdm':
        '417bba6efbdd5fee1aca82ded88c0cdcb50fbec29e6580cd3285377d6492bc59',
    '7:II:rational:classify':
        'fc8c967db116c0812e42ae096e6e278eb759a4716303c2a58bd3f0ccb7ac3062',
    '7:II:rational:rdm':
        '417bba6efbdd5fee1aca82ded88c0cdcb50fbec29e6580cd3285377d6492bc59',
    '7:III:float:classify':
        '9b1387cb8d25cfb16cc418abd51f38a687fda9e584d6d1084694e4d902f63890',
    '7:III:float:rdm':
        '054ae4e307d3a8fc7570eb753dbf121b07e2c6124a94a15acf2d00fcfa57151a',
    '7:III:rational:classify':
        '13bbb39bace40cabf18613b0661151a7e0442715ce23213c71c179fa344b1bc1',
    '7:III:rational:rdm':
        '054ae4e307d3a8fc7570eb753dbf121b07e2c6124a94a15acf2d00fcfa57151a',
    '7:IV:float:classify':
        'b26cf05cd76b4b0043a1c3c8991f3f2589c33d75e697ec5577ef6ec4f097ea24',
    '7:IV:float:rdm':
        'bde55ba172be13e928a442507f9725bf790e469be0b36197fbbebc8ed228cce8',
    '7:IV:rational:classify':
        '0803b0fd255303c3c912929be5af32a6e397c0710272f2efa8ce4379006eefda',
    '7:IV:rational:rdm':
        'bde55ba172be13e928a442507f9725bf790e469be0b36197fbbebc8ed228cce8',
    '7:V:float:classify':
        '4403b6276cfcbf0f81017195115754a40bfbb501fabd845f206c43cd9ee196ba',
    '7:V:float:rdm':
        'e9ed151ac7d1bcfe610c3d201716964b4e741066a1a48cc18f64f436a2243d50',
    '7:V:rational:classify':
        '0bcf9861df8afa58bdd3ee6eb5fbae3f0df1af7f189f2ae43dd2846fd1b706cd',
    '7:V:rational:rdm':
        'e9ed151ac7d1bcfe610c3d201716964b4e741066a1a48cc18f64f436a2243d50',
    '7:VI:float:classify':
        'b4d80e01002264a756490b9a9c0144cc117b92e7ae977bca390c66e5037732d0',
    '7:VI:float:rdm':
        '777841a2058ac416dd74ee05db4e13297e04ed6850ea3cf3de5808a1cbaa82db',
    '7:VI:rational:classify':
        '56674de2c30f56a0521682bb025d8c66b60d141ed394b67003d4a0bdaeca38fd',
    '7:VI:rational:rdm':
        '777841a2058ac416dd74ee05db4e13297e04ed6850ea3cf3de5808a1cbaa82db',
    '7:VII:float:classify':
        '3fae22dd6a29456bd22192ebf5a277437d62f490a89e098f1a9a5138af7936b6',
    '7:VII:float:rdm':
        '6b592182671edfae99befc517103d2126c10fefd43094c5dbf69eeaa92b95b71',
    '7:VII:rational:classify':
        '7c4c9d272a50f9f2af72b1685f89a0f8ae579e46422060aec33a374db489c9da',
    '7:VII:rational:rdm':
        '6b592182671edfae99befc517103d2126c10fefd43094c5dbf69eeaa92b95b71',
    '7:VIII:float:classify':
        'bc6de19589e01f3a9973f8dfb609900c8f034a73461120516aead0d7d9a6f0eb',
    '7:VIII:float:rdm':
        'b5ec720079ee9edc593e06a510b78f21bbd94613b1ed25e20fea2dc08508e5ee',
    '7:VIII:rational:classify':
        'cad3702757855ec5b45c7b5bfce4bc7b337ad4058178527659cb5af4ebd15ce1',
    '7:VIII:rational:rdm':
        'b5ec720079ee9edc593e06a510b78f21bbd94613b1ed25e20fea2dc08508e5ee',
    '7:IX:float:classify':
        'a7025ff7b7adb08b3a7c2fd9ac73d4911dce56fe1b2e9be929620ea372c18194',
    '7:IX:float:rdm':
        '3c74b4f61b71fccbe0a853866d13db82e8b5d7b4b8169aabcd868a0759798151',
    '7:IX:rational:classify':
        '1e237f38d20364351432f7f986a78642bb99f69ebf78256fc5e89c7f7910fcd1',
    '7:IX:rational:rdm':
        '3c74b4f61b71fccbe0a853866d13db82e8b5d7b4b8169aabcd868a0759798151',
    '7:X:float:classify':
        'c4107a6501860bbd6ebc3b6a3d04c60ee4bbbe8703fa4cbf75c297a58c00beb0',
    '7:X:float:rdm':
        '89861fc9e98355554238b9fd59225d0395ab3c97c60453cb0fde1d34afb594d5',
    '7:X:rational:classify':
        '80b17099d41102edcb78047d01a83240a6b39373e0c8ffcd046190ff1bb00c63',
    '7:X:rational:rdm':
        '89861fc9e98355554238b9fd59225d0395ab3c97c60453cb0fde1d34afb594d5',
    '8:XI:float:classify':
        'b7f00c9dc35ca89ef1586ac7060a4f1eb2bd091c17c3f6f738969938402eeec5',
    '8:XI:float:rdm':
        '1b8f903f1ce486170dde2483bcccb8a9d4495bab04b75b9ab581e565c1082e5a',
    '8:XII:float:classify':
        'aedc038eb5a79b82856763dfd37b85977abdd65e6876f00ba6e8800d2f1bbbd7',
    '8:XII:float:rdm':
        '93ff7ce222a83acea3fc908c68046f53343dd05ca4db42e6e2f6c9176e175c76',
    '8:XIII:float:classify':
        '501e530f25270f14dc053154c79e8fbe37e3ce2eecefc545e217eb37ca80cd68',
    '8:XIII:float:rdm':
        'bebf9caee1b011117d2a1df148574c7a39e12c2d3dfc1f074019efcc5c44220a',
    '8:XIV:float:classify':
        'e2c480bdf25f9bb780bd820fe583faeb731a5134623b4f0442db472154eb41bf',
    '8:XIV:float:rdm':
        '3d41ec377438e832acd3d9dd851452948b26b2019f09dcbe3d59b9f9aee71f16',
    '8:XV:float:classify':
        'fbb6c34a5bb1bdbe28a9b523c0e608d91fbfc4a0b6d905b417d51d400a88353f',
    '8:XV:float:rdm':
        'ce86375c04964162de318b02c70285cbe200abdf9d5d8b8283d05a2b6b2ac8e5',
    '8:XVI:float:classify':
        '8a2c19d8fcdaa7aa9e24475efb84b32e57393f82f6aed6ddedf50c893b36dc09',
    '8:XVI:float:rdm':
        '6946a6c0499e947b0a493bc59149503417fa5a2404300b56ee0745c4d28f9a4d',
    '8:XVII:float:classify':
        '6fd3493e7c895997a9e6e71f0fae8c074ea762f72ed6d07145d8d79437168367',
    '8:XVII:float:rdm':
        'bebf9caee1b011117d2a1df148574c7a39e12c2d3dfc1f074019efcc5c44220a',
    '8:XVIII:float:classify':
        'd0e6e5520aecbe98d0d739be7455269d14d4597f2e9723bc5d2f626441259c2c',
    '8:XVIII:float:rdm':
        '3d41ec377438e832acd3d9dd851452948b26b2019f09dcbe3d59b9f9aee71f16',
    '8:XIX:float:classify':
        '7cfb97494a1a504739ba6d042e88739ea033acd293a5a357afaa74dd0bcb8261',
    '8:XIX:float:rdm':
        '3d41ec377438e832acd3d9dd851452948b26b2019f09dcbe3d59b9f9aee71f16',
    '8:XX:float:classify':
        'b336baa65408bf5ea8810d7509fe62baf049435e7e6fda80779115046ab051b0',
    '8:XX:float:rdm':
        'ce86375c04964162de318b02c70285cbe200abdf9d5d8b8283d05a2b6b2ac8e5',
    '8:XXI:float:classify':
        '635bf204ac7b1b12e635a1018ef9a9ffc6930991dcd3cef9b0c3dce06d3eaa18',
    '8:XXI:float:rdm':
        '33e5bc55e83c23ff95b262d2e70e7c7d167416a87de7304f53ef5700ca7f57bf',
    '8:XXII:float:classify':
        '230b868410d5cb2affc733c0a30cc503589557ca4c198e88392bf52699255be3',
    '8:XXII:float:rdm':
        '5a1acc046e3124675e750fe82e2d57c8c8907d2134e268ef3c3102532928575c',
    '8:XXIII:float:classify':
        '2d09efd5d6e4a676f2374de91cdb7e07b71843e71c57212611159fe1116f30dd',
    '8:XXIII:float:rdm':
        'c768804c2f744012d25101a9b3dd607d8e3436f9f545e99349a6e0096d78cc85',
    '9:family1:float:classify':
        '89216cb04e2d33d6b8125711c65123463170d8c0203fa2ac361f5d1108e3dc57',
    '9:family1:float:rdm':
        '81d2598f39b93a024d7cbb4a472a45d56a43450f2c958395635420e484d35731',
    '9:family2:float:classify':
        'dcc3ad47d1b6f3acdbaa3c161f508f99b74e39b4b1cdf61ee9aeb0ae0efcfab8',
    '9:family2:float:rdm':
        '81d2598f39b93a024d7cbb4a472a45d56a43450f2c958395635420e484d35731',
    '9:family3:float:classify':
        'c35531c40f3a0279a988a137cb04ed50a13b645c9616dc44c1168a21ab39cbf8',
    '9:family3:float:rdm':
        '81d2598f39b93a024d7cbb4a472a45d56a43450f2c958395635420e484d35731',
    '9:family4:float:classify':
        '178eb4d7d60d8b4a6cf78afa9d9af29692219d081e6dcd0e9ae7713895ff2d20',
    '9:family4:float:rdm':
        '81d2598f39b93a024d7cbb4a472a45d56a43450f2c958395635420e484d35731',
    '9:family5:float:classify':
        '00a279092026ef1577f4536160b554b1a41817845ef68509211a4625ca74d741',
    '9:family5:float:rdm':
        '81d2598f39b93a024d7cbb4a472a45d56a43450f2c958395635420e484d35731',
    '9:family6:float:classify':
        '24ecc6ebea332bb9d99937865a1c0e4cbb6c704d30eab3ae132d56270e7e8c8f',
    '9:family6:float:rdm':
        '81d2598f39b93a024d7cbb4a472a45d56a43450f2c958395635420e484d35731',
    '9:family7:float:classify':
        '26ae4e7f6b2f6d00a55c66658815eff9586f72bc394b8822cbd24af6accc7e70',
    '9:family7:float:rdm':
        '8327c07d0427850798825ae76265655a17967f02ee43c79e1a40ecdd01504524',
}


def test_report_bytes_match_the_recorded_digests(tmp_path):
    got = digests(tmp_path)
    assert set(got) == set(GOLDEN)
    changed = sorted(k for k in GOLDEN if got[k] != GOLDEN[k])
    assert not changed, changed
