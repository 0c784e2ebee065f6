"""Frozen expected values: the four solution tables, CLI JSON and the
registry's comarks.

Cell contents are stored as lists of tuples (or part-tuples for partitions),
in ascending lexicographic order, exactly as the tables list them.
"""

# N -> (M'-elements, phi(M'), (L'-M')-elements, phi(L'-M'), solutions)
TABLE_8N1 = {
    0: ([(0, 0)], [(0, 1)], [], [], [(-1, 0), (0, -1), (0, 1), (1, 0)]),
    1: ([], [], [(0, -1)], [(0, -3)], [(-3, 0), (0, -3), (0, 3), (3, 0)]),
    2: ([], [], [(-1, 0), (1, 0)], [(-4, 1), (4, 1)],
        [(-4, -1), (-4, 1), (-1, -4), (-1, 4), (1, -4), (1, 4), (4, -1), (4, 1)]),
    3: ([(-1, -1), (1, -1)], [(-4, -3), (4, -3)], [(0, 1)], [(0, 5)],
        [(-5, 0), (-4, -3), (-4, 3), (-3, -4), (-3, 4), (0, -5), (0, 5),
         (3, -4), (3, 4), (4, -3), (4, 3), (5, 0)]),
    4: ([], [], [], [], []),
    5: ([(-1, 1), (1, 1)], [(-4, 5), (4, 5)], [], [],
        [(-5, -4), (-5, 4), (-4, -5), (-4, 5), (4, -5), (4, 5), (5, -4), (5, 4)]),
    6: ([(0, -2)], [(0, -7)], [], [], [(-7, 0), (0, -7), (0, 7), (7, 0)]),
    7: ([], [], [], [], []),
    8: ([(-2, 0), (2, 0)], [(-8, 1), (8, 1)], [(-1, -2), (1, -2)], [(-4, -7), (4, -7)],
        [(-8, -1), (-8, 1), (-7, -4), (-7, 4), (-4, -7), (-4, 7), (-1, -8), (-1, 8),
         (1, -8), (1, 8), (4, -7), (4, 7), (7, -4), (7, 4), (8, -1), (8, 1)]),
    9: ([], [], [(-2, -1), (2, -1)], [(-8, -3), (8, -3)],
        [(-8, -3), (-8, 3), (-3, -8), (-3, 8), (3, -8), (3, 8), (8, -3), (8, 3)]),
    10: ([(0, 2)], [(0, 9)], [], [], [(-9, 0), (0, -9), (0, 9), (9, 0)]),
    11: ([], [], [(-2, 1), (2, 1)], [(-8, 5), (8, 5)],
         [(-8, -5), (-8, 5), (-5, -8), (-5, 8), (5, -8), (5, 8), (8, -5), (8, 5)]),
    12: ([], [], [(-1, 2), (1, 2)], [(-4, 9), (4, 9)],
         [(-9, -4), (-9, 4), (-4, -9), (-4, 9), (4, -9), (4, 9), (9, -4), (9, 4)]),
    13: ([], [], [], [], []),
    14: ([(-2, -2), (2, -2)], [(-8, -7), (8, -7)], [], [],
         [(-8, -7), (-8, 7), (-7, -8), (-7, 8), (7, -8), (7, 8), (8, -7), (8, 7)]),
}

# N -> (B(N), phi(B(N)), solutions)
TABLE_40N10 = {
    0: ([(0, 0)], [(-3, -1)],
        [(-3, -1), (-3, 1), (-1, -3), (-1, 3), (1, -3), (1, 3), (3, -1), (3, 1)]),
    1: ([(1, 0)], [(7, -1)],
        [(-7, -1), (-7, 1), (-5, -5), (-5, 5), (-1, -7), (-1, 7), (1, -7), (1, 7),
         (5, -5), (5, 5), (7, -1), (7, 1)]),
    2: ([(0, 1)], [(-3, 9)],
        [(-9, -3), (-9, 3), (-3, -9), (-3, 9), (3, -9), (3, 9), (9, -3), (9, 3)]),
    3: ([(0, -1), (1, 1)], [(-3, -11), (7, 9)],
        [(-11, -3), (-11, 3), (-9, -7), (-9, 7), (-7, -9), (-7, 9), (-3, -11), (-3, 11),
         (3, -11), (3, 11), (7, -9), (7, 9), (9, -7), (9, 7), (11, -3), (11, 3)]),
    4: ([(-1, 0), (1, -1)], [(-13, -1), (7, -11)],
        [(-13, -1), (-13, 1), (-11, -7), (-11, 7), (-7, -11), (-7, 11), (-1, -13), (-1, 13),
         (1, -13), (1, 13), (7, -11), (7, 11), (11, -7), (11, 7), (13, -1), (13, 1)]),
    5: ([], [], []),
    6: ([(-1, 1)], [(-13, 9)],
        [(-15, -5), (-15, 5), (-13, -9), (-13, 9), (-9, -13), (-9, 13), (-5, -15), (-5, 15),
         (5, -15), (5, 15), (9, -13), (9, 13), (13, -9), (13, 9), (15, -5), (15, 5)]),
}

# N -> (B(N), phi(B(N)), solutions)
TABLE_6N7 = {
    0: ([(0, 0)], [(2, 1)], [(-2, -1), (-2, 1), (2, -1), (2, 1)]),
    1: ([(0, -1)], [(-1, -2)], [(-1, -2), (-1, 2), (1, -2), (1, 2)]),
    2: ([(-1, 0)], [(-4, 1)], [(-4, -1), (-4, 1), (4, -1), (4, 1)]),
    3: ([], [], [(-5, 0), (5, 0)]),
    4: ([], [], [(-2, -3), (-2, 3), (2, -3), (2, 3)]),
    5: ([(1, -1)], [(5, -2)], [(-5, -2), (-5, 2), (5, -2), (5, 2)]),
}

# N -> (partitions, B(N), phi(B(N)), solutions)
TABLE_12N7 = {
    0: ([()], [(0, 0)], [(2, 1)], [(-2, -1), (-2, 1), (2, -1), (2, 1)]),
    1: ([(1,)], [(0, -1)], [(-4, -1)], [(-4, -1), (-4, 1), (4, -1), (4, 1)]),
    2: ([(2,)], [(-1, 0)], [(2, -3)], [(-2, -3), (-2, 3), (2, -3), (2, 3)]),
    3: ([(2, 1)], [(1, -1)], [(-4, 3)], [(-4, -3), (-4, 3), (4, -3), (4, 3)]),
    4: ([], [], [], []),
    5: ([(3, 2)], [(-1, 1)], [(8, -1)], [(-8, -1), (-8, 1), (8, -1), (8, 1)]),
    6: ([(4, 2)], [(1, 0)], [(2, 5)], [(-2, -5), (-2, 5), (2, -5), (2, 5)]),
    7: ([(4, 2, 1), (4, 3)], [(-1, -1), (0, 1)], [(-4, -5), (8, 3)],
        [(-8, -3), (-8, 3), (-4, -5), (-4, 5), (4, -5), (4, 5), (8, -3), (8, 3)]),
    8: ([(5, 2, 1)], [(1, -2)], [(-10, 1)], [(-10, -1), (-10, 1), (10, -1), (10, 1)]),
    9: ([], [], [], []),
    10: ([(5, 4, 1)], [(0, -2)], [(-10, -3)], [(-10, -3), (-10, 3), (10, -3), (10, 3)]),
    11: ([(6, 3, 2)], [(-2, 1)], [(8, -5)], [(-8, -5), (-8, 5), (8, -5), (8, 5)]),
    12: ([(6, 4, 2)], [(-2, 0)], [(2, -7)], [(-2, -7), (-2, 7), (2, -7), (2, 7)]),
    13: ([(6, 4, 2, 1)], [(2, -1)], [(-4, 7)], [(-4, -7), (-4, 7), (4, -7), (4, 7)]),
    14: ([(6, 5, 2, 1)], [(2, -2)], [(-10, 5)], [(-10, -5), (-10, 5), (10, -5), (10, 5)]),
    15: ([], [], [], []),
    16: ([(7, 4, 3, 2)], [(-1, 2)], [(14, 1)], [(-14, -1), (-14, 1), (14, -1), (14, 1)]),
    17: ([(8, 4, 3, 2)], [(1, 1)], [(8, 7)], [(-8, -7), (-8, 7), (8, -7), (8, 7)]),
    18: ([(7, 6, 3, 2)], [(-2, 2)], [(14, -3)], [(-14, -3), (-14, 3), (14, -3), (14, 3)]),
    19: ([], [], [], []),
}

# The first values of the bar-partition model at rank 2 (sizes 0..6),
# and the complete level-35 fibre.
D6_SMALL = {
    0: [()],
    1: [(1,)],
    2: [(2,)],
    3: [(2, 1)],
    4: [(4,)],
    5: [(4, 1), (5,)],
    6: [],
}
D6_35 = [(13, 10, 7, 4, 1), (16, 10, 5, 4), (17, 11, 5, 2)]

# Self-conjugate 4-cores of size 40
SCC4_40 = [
    (8, 8, 6, 6, 4, 4, 2, 2),
    (10, 7, 6, 5, 4, 3, 2, 1, 1, 1),
    (11, 8, 5, 4, 3, 2, 2, 2, 1, 1, 1),
]

# D4-flat model, sizes 0..10 (empty at 4 and 9)
D4FLAT_SMALL = {
    0: [()], 1: [(1,)], 2: [(2,)], 3: [(2, 1)], 4: [],
    5: [(3, 2)], 6: [(4, 2)], 7: [(4, 2, 1), (4, 3)], 8: [(5, 2, 1)],
    9: [], 10: [(5, 4, 1)],
}

# The 20 stratum labels at N = 121
GAMMA_121 = [-49, -41, -37, -35, -29, -25, -19, -11, -5, -1,
             1, 5, 11, 19, 25, 29, 35, 37, 41, 49]

# Raw stdout of `corelat verify --case C --N n --format json`, one level of
# each claim kind and of each group of a `complete` case (C6, D8, C4, V4),
# and of `corelat conjecture-a3 --max-N 3 --format json`.
# They pin the JSON key order of `counts` as well as the values.
VERIFY_JSON = {
    ('C2', 40): (
        '[{"case":"C2","N":40,"status":"PASS","counts":{"solutions":24,'
        '"orbits":3,"phi_images":3}}]\n'
    ),
    ('A2', 30): (
        '[{"case":"A2","N":30,"status":"PASS","counts":{"solutions":24,'
        '"orbits":4,"phi_images":4}}]\n'
    ),
    ('C2L1', 53): (
        '[{"case":"C2L1","N":53,"status":"PASS","counts":{"solutions":24,'
        '"orbits":6,"phi_images":6}}]\n'
    ),
    ('D43', 35): (
        '[{"case":"D43","N":35,"status":"PASS","counts":{"solutions":8,'
        '"orbits":2,"phi_images":2}}]\n'
    ),
    ('A42', 1): (
        '[{"case":"A42","N":1,"status":"PASS","counts":{"solutions":12,'
        '"orbits":2,"phi_images":1,"expected_orbit_size":8,'
        '"covered_orbits":1}}]\n'
    ),
    ('A2ext', 1): (
        '[{"case":"A2ext","N":1,"status":"PASS","counts":{"solutions":6,'
        '"base_elements":1,"extended_elements":3}}]\n'
    ),
    ('A3', 3): (
        '[{"case":"A3","N":3,"status":"PASS","counts":{"solutions":108,'
        '"base_elements":3,"extended_elements":12,"strata":10}}]\n'
    ),
    ('HYP:C3_1', 4): (
        '[{"case":"HYP:C3_1","N":4,"status":"PASS",'
        '"counts":{"solutions":120,"orbits":3,"phi_images":1,'
        '"expected_orbit_size":48,"covered_orbits":1}}]\n'
    ),
    ('D3t', 35): (
        '[{"case":"D3t","N":35,"status":"PASS","counts":{"solutions":24,'
        '"orbits":3,"phi_images":3}}]\n'
    ),
    ('A42', 6): (
        '[{"case":"A42","N":6,"status":"PASS","counts":{"solutions":16,'
        '"orbits":2,"phi_images":1,"expected_orbit_size":8,'
        '"covered_orbits":1}}]\n'
    ),
    ('HYP:B2_1', 3): (
        '[{"case":"HYP:B2_1","N":3,"status":"PASS",'
        '"counts":{"solutions":8,"orbits":1,"phi_images":1,'
        '"expected_orbit_size":8,"covered_orbits":1}}]\n'
    ),
    ('HYP:A5_2', 2): (
        '[{"case":"HYP:A5_2","N":2,"status":"PASS",'
        '"counts":{"solutions":48,"orbits":1,"phi_images":1,'
        '"expected_orbit_size":48,"covered_orbits":1}}]\n'
    ),
}

CONJECTURE_A3_JSON_3 = (
    '[{"case":"A3conj","N":0,"status":"PASS","counts":{"solutions":36,'
    '"base_elements":1,"extended_elements":4,"covered":36}},'
    '{"case":"A3conj","N":1,"status":"PASS","counts":{"solutions":48,'
    '"base_elements":1,"extended_elements":4,"covered":48}},'
    '{"case":"A3conj","N":2,"status":"PASS","counts":{"solutions":84,'
    '"base_elements":2,"extended_elements":8,"covered":84}},'
    '{"case":"A3conj","N":3,"status":"PASS","counts":{"solutions":108,'
    '"base_elements":3,"extended_elements":12,"covered":108}}]\n'
)


# type id -> comarks (a_0^v, ..., a_n^v) as the registry typed them in by hand
# before they were derived: every id of all_type_ids(8) and seven larger ones
COMARKS = {
    "A1_1": (1, 1),
    "A2_1": (1, 1, 1),
    "A3_1": (1, 1, 1, 1),
    "A4_1": (1, 1, 1, 1, 1),
    "A5_1": (1, 1, 1, 1, 1, 1),
    "A6_1": (1, 1, 1, 1, 1, 1, 1),
    "A7_1": (1, 1, 1, 1, 1, 1, 1, 1),
    "A8_1": (1, 1, 1, 1, 1, 1, 1, 1, 1),
    "B3_1": (1, 1, 2, 1),
    "B4_1": (1, 1, 2, 2, 1),
    "B5_1": (1, 1, 2, 2, 2, 1),
    "B6_1": (1, 1, 2, 2, 2, 2, 1),
    "B7_1": (1, 1, 2, 2, 2, 2, 2, 1),
    "B8_1": (1, 1, 2, 2, 2, 2, 2, 2, 1),
    "C2_1": (1, 1, 1),
    "C3_1": (1, 1, 1, 1),
    "C4_1": (1, 1, 1, 1, 1),
    "C5_1": (1, 1, 1, 1, 1, 1),
    "C6_1": (1, 1, 1, 1, 1, 1, 1),
    "C7_1": (1, 1, 1, 1, 1, 1, 1, 1),
    "C8_1": (1, 1, 1, 1, 1, 1, 1, 1, 1),
    "D4_1": (1, 1, 2, 1, 1),
    "D5_1": (1, 1, 2, 2, 1, 1),
    "D6_1": (1, 1, 2, 2, 2, 1, 1),
    "D7_1": (1, 1, 2, 2, 2, 2, 1, 1),
    "D8_1": (1, 1, 2, 2, 2, 2, 2, 1, 1),
    "E6_1": (1, 1, 2, 3, 2, 2, 1),
    "E7_1": (1, 1, 2, 3, 4, 2, 3, 2),
    "E8_1": (1, 2, 3, 4, 5, 6, 3, 4, 2),
    "F4_1": (1, 2, 3, 2, 1),
    "G2_1": (1, 2, 1),
    "A2_2": (1, 2),
    "A4_2": (1, 2, 2),
    "A6_2": (1, 2, 2, 2),
    "A8_2": (1, 2, 2, 2, 2),
    "A10_2": (1, 2, 2, 2, 2, 2),
    "A12_2": (1, 2, 2, 2, 2, 2, 2),
    "A14_2": (1, 2, 2, 2, 2, 2, 2, 2),
    "A16_2": (1, 2, 2, 2, 2, 2, 2, 2, 2),
    "A5_2": (1, 1, 2, 2),
    "A7_2": (1, 1, 2, 2, 2),
    "A9_2": (1, 1, 2, 2, 2, 2),
    "A11_2": (1, 1, 2, 2, 2, 2, 2),
    "A13_2": (1, 1, 2, 2, 2, 2, 2, 2),
    "A15_2": (1, 1, 2, 2, 2, 2, 2, 2, 2),
    "D3_2": (1, 2, 1),
    "D4_2": (1, 2, 2, 1),
    "D5_2": (1, 2, 2, 2, 1),
    "D6_2": (1, 2, 2, 2, 2, 1),
    "D7_2": (1, 2, 2, 2, 2, 2, 1),
    "D8_2": (1, 2, 2, 2, 2, 2, 2, 1),
    "D9_2": (1, 2, 2, 2, 2, 2, 2, 2, 1),
    "E6_2": (1, 2, 3, 4, 2),
    "D4_3": (1, 2, 3),
    "A30_1": (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
              1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    "C20_1": (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    "B17_1": (1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1),
    "A40_2": (1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
    "A41_2": (1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
    "D30_2": (1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
              2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1),
    "D25_1": (1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1),
}


# argv -> SHA-256 of the whole stdout, for the long sweeps whose text is too
# large to keep here, and one sweep of every case the benchmark's verify
# sweeps run, CSV and JSON
SWEEP_SHA256 = {
    ("conjecture-a3", "--max-N", "400"):
        "43e5a723d9640a0f36e53bdef75e22140ac9d2f76ebd0bc0399ea52c7bf95d48",
    ("conjecture-a3", "--max-N", "400", "--format", "json"):
        "b3422cfc397326de9ff71955d242662acc341caed64e56418c7747dfe1e2daf7",
    ("verify", "--case", "A3", "--max-N", "100"):
        "926edc2c3ec85b3d0046e89f1033d76fd5ae3413e4de77adc1e274fc94576a70",
    ("verify", "--case", "A3", "--max-N", "100", "--format", "json"):
        "793c295538c621aee07c31661009d89f1eeee25b2b2117d8cf444ceccbca2922",
    ("verify", "--case", "A2ext", "--max-N", "400", "--format", "json"):
        "79e648f2ae1c2a5ef549c1982882e58ad4d32142b2a4451d1831f5ecfcabe040",
    ("verify", "--case", "A2", "--max-N", "60"):
        "612709c6addd1436a3b466ffa0677b5af2cf41ac58a4a5c1d1b5ae1edd85802b",
    ("verify", "--case", "A2", "--max-N", "60", "--format", "json"):
        "027639bcbb4be7d313193289902ad06b14b588a425ca8e7e674550fe6a0bd491",
    ("verify", "--case", "C2", "--max-N", "60"):
        "f52c4168db92e136b87635079f0b667cf4c0b208997f0c9f8bab4ef1123a8db1",
    ("verify", "--case", "C2", "--max-N", "60", "--format", "json"):
        "2a767025ae0782db515e570daf55c5c8bdf5426fe92a08ea810b3494a2dead9a",
    ("verify", "--case", "C2L1", "--max-N", "60"):
        "92832effac0c1787340009c61b90dcc97e9db58518e2ab025af7f731fcc7c410",
    ("verify", "--case", "C2L1", "--max-N", "60", "--format", "json"):
        "fa56be410574c72eb89046c3b09d2e7e935c429a8991b0581ec1ce555e869442",
    ("verify", "--case", "D3t", "--max-N", "60"):
        "78062a0b0d2b063e5660837415ad2f26a9bc4e2f86468ec04db9fe167aff4209",
    ("verify", "--case", "D3t", "--max-N", "60", "--format", "json"):
        "7939612bde0a72d495aa117b16468ae1d54ae94aa6838c3a9ebe333666f9aab7",
    ("verify", "--case", "A42", "--max-N", "60"):
        "5ca7669932794e2142bef1ebca002529b7fd632a522eaa9615a6c01d35963211",
    ("verify", "--case", "A42", "--max-N", "60", "--format", "json"):
        "b23c55c2cd197f19a5ce23feecb5121e4047e320ffaeeeef8b64de5d0d23f23a",
    ("verify", "--case", "G21", "--max-N", "60"):
        "11f5d1b793c9a636755d0110e83c62dccf12533710481b1d388f5cc3a5060522",
    ("verify", "--case", "G21", "--max-N", "60", "--format", "json"):
        "f643425d3113b02f7aec2eba93c0d2dcdac11a0d56ed86322a2f2cabc63ef207",
    ("verify", "--case", "D43", "--max-N", "60"):
        "40f4fc2d017e2354880c19cd3546c0ac8dfc734545bac57423a575da1860687a",
    ("verify", "--case", "D43", "--max-N", "60", "--format", "json"):
        "c34decf43ee8e8477a4a42ee6d3897cbe8a528e4ad029ce6893a8e64cb2a1c03",
    ("verify", "--case", "A2", "--max-N", "400"):
        "7c3fbc1db3e28a9d1384d055d7941491b09e0a6d6a3d187d128ccd90b0991903",
    ("verify", "--case", "A2", "--max-N", "400", "--format", "json"):
        "131e7dd549745b1023a3fc0f946e8514eed5d85b758e2cdf8ee3f773036e4adb",
    ("verify", "--case", "A2ext", "--max-N", "400"):
        "d89561ebcca51f4b37fde76f79d02a195a0c3da24f2bebaf121d7755056a60c9",
    ("verify", "--case", "C2L1", "--max-N", "400"):
        "bf1ffeac27276437d8ae91a1660082e8bbc17220b80eacefc0645e442ce35061",
    ("verify", "--case", "C2L1", "--max-N", "400", "--format", "json"):
        "00f94775476815e8c4f932646bb90698ad3e56cabe85c11f4cfd6956b2606a2d",
    ("verify", "--case", "G21", "--max-N", "400"):
        "8aa1e7eb7e106e7adc76d63855dd6319b1e8b9c82da635140de3a79b4f816016",
    ("verify", "--case", "G21", "--max-N", "400", "--format", "json"):
        "1e6d91531f162a810394eaf4000df65eca3fd91e50c970d508a3cedade13c508",
    ("verify", "--case", "D43", "--max-N", "400"):
        "e9f135a34140e61b7e8d88679c978dbd5c422dd536e3e1f922b00df16851f0c8",
    ("verify", "--case", "D43", "--max-N", "400", "--format", "json"):
        "8c8cc8e06f31035a0e8c92366d27c04b50c899a4d690c7697377961b6a947057",
    ("verify", "--case", "HYP:C3_1", "--max-N", "14"):
        "18174fa99002d2d4de20a8da3c7630eddb492e3eebaa7381fe66bbd4e06b3499",
    ("verify", "--case", "HYP:C3_1", "--max-N", "14", "--format", "json"):
        "b71d19b418f2b4efcb7b21195ec56e2280f02a7f45212182580640b9adbb8911",
    # H sweeps across band boundaries, at ranks 3, 1, 4 and 5
    ("verify", "--case", "HYP:C3_1", "--max-N", "100"):
        "e492619e42d8dbbae64e5f42694dd66428be06a195a6acc39dcfe4a48c73b9ba",
    ("verify", "--case", "HYP:C3_1", "--max-N", "100", "--format", "json"):
        "56465d4eba3174910a9d3d75ebf963878dadd22c1dc1aeb2ac27bbb8cc20bc28",
    ("verify", "--case", "HYP:B1_1", "--max-N", "100"):
        "207d797ef1939a6d4207e2c9b65e10a925cd6f3b163463b159ddb0f25870e4e6",
    ("verify", "--case", "HYP:C4_1", "--max-N", "40"):
        "27de03b89d4c6463b8a6900a33d2fe0675028feceb1ec256f3977f3c4f5a1e0c",
    ("verify", "--case", "HYP:A5_2", "--max-N", "70"):
        "43d13b06c0a6deb23e689289087f87aaf7e66be5d754257b0168eab555b43f9f",
}


# argv -> SHA-256 of the whole stdout of one enumerate level, CSV and JSON,
# on lattice M (weight L0) and L (weight L1)
ENUMERATE_SHA256 = {
    ("enumerate", "--type", "E8_1", "--N", "32"):
        "d45a3d0914750c620c6c0e3488a63846b64c116895597e2caf536c256c81afcf",
    ("enumerate", "--type", "E8_1", "--N", "32", "--format", "json"):
        "28f183d6cc3eb3a31bbc772fedfbcde1338265c7fef63ca858867eb3d5c8e083",
    ("enumerate", "--type", "E6_1", "--N", "34"):
        "9505a492e6111de8132d87ce87c0432a3ff8a9f99ebfdc256536af23cf9346e6",
    ("enumerate", "--type", "E6_1", "--N", "34", "--format", "json"):
        "f2370126516c7d7213a6bee11adb86ee9a1978a20824f425ad3d165e52355c6f",
    ("enumerate", "--type", "F4_1", "--N", "124"):
        "0e2c51fbd93e5a5d3a7852b95140f7da882a1702a52598ec2db5435df5edb470",
    ("enumerate", "--type", "F4_1", "--N", "124", "--format", "json"):
        "aa305b11cd3f48800a54f1da9279d1995a349f2a5e7fc08d90d021e8494729e4",
    ("enumerate", "--type", "A4_1", "--weight", "L0", "--N", "48"):
        "216f95ca709b2f0e7f63cc6583408ddd66ff090eaad6708007a6b21ad9879306",
    ("enumerate", "--type", "A4_1", "--weight", "L0", "--N", "48", "--format", "json"):
        "d7bd029fbd4ff81d6569e8f4950e0716e451a2cd02964475d928b877acd0005c",
    ("enumerate", "--type", "C4_1", "--weight", "L1", "--N", "92"):
        "767cf68b27a847652c84a2ab3501e5f87352781e514592707aae30e157f4284c",
    ("enumerate", "--type", "C4_1", "--weight", "L1", "--N", "92", "--format", "json"):
        "1092e65332093d3c4b450216ac0ce800717ba9f93c4ff7c94135467bc67b3455",
    ("enumerate", "--type", "A3_1", "--weight", "L1", "--N", "104"):
        "35c63e52f23b5d2898b5c50d53437ae0ee6e2d0326f34c1158f506991d7b6591",
    ("enumerate", "--type", "A3_1", "--weight", "L1", "--N", "104", "--format", "json"):
        "d2cd6e53ebd1b4527fea83637899d7e615e6bb681385c5f4bef2a6ca08060836",
    ("enumerate", "--type", "D5_2", "--N", "92"):
        "8270a2869506c6b578618c9a32a9c11065bcc225b781fcf7d97c3731d906962d",
    ("enumerate", "--type", "D5_2", "--N", "92", "--format", "json"):
        "cd58db7fefedbfa8a42b8308094b7b1cc53078c08f52e2cd19f29fb104e71590",
    ("enumerate", "--type", "D4_3", "--N", "399"):
        "53a380f061c06ea6fd3d0e0fd785274bb32646797e77471cfc119792aa580a62",
    ("enumerate", "--type", "D4_3", "--N", "399", "--format", "json"):
        "d7e86955803ee5362311986c80e38d5cbedf0c01a0eb88fd3d6c10a65b03ff9d",
    ("enumerate", "--type", "A4_2", "--N", "400"):
        "2a928b605ab305c06b01d95306853fd45a51459613fd7939955933fd3bd2059c",
    ("enumerate", "--type", "A4_2", "--N", "400", "--format", "json"):
        "6ad386c0fc7d86d1c66338d047764aa0125489a7661df7ad3e3594008db35902",
}


# SHA-256 of repr([(d, kind, n, enumerate_partitions(n, kind, d)), ...]) over
# d = 2..10, kind core, scc and scc-plus, and n = 0..40, in that nesting
ENUMERATE_PARTITIONS_SHA256 = "ea1f3a0bed7aeecf84fb64b1ab2fbf30ace422374c5c2541e0b3b3e8b0c5474b"


# SHA-256 of the compiled search of every form test_kernels.search_forms
# lists, both its variants, the one-level solve and the band step: per form,
# its name, linalg.level_source of its ball's constants, the ball's D and
# every entry of a and b as str(Fraction(x)), so that an int and an equal
# Fraction hash the same
COMPILED_SEARCH_SHA256 = "35b2a1517d3fc2aa20a1eb32d99598b4c5428ce3ae0a90b7a35022f46459d36d"


# SHA-256 of the concatenated stdout of `corelat solve --case <id> --N <n>
# --format <fmt>` over n = 0..40, keyed (id, fmt): CSV for every param.CASES
# id plus HYP:C1_1 and HYP:B4_1, and JSON for A2, A3 and HYP:B4_1
SOLVE_SHA256 = {
    ("A2", "csv"): "36e22f33b0906fda1adf1185c6247e7c209f1b53d144691660d3c22ad43a623f",
    ("A2ext", "csv"): "29077378b6fc3b00d9793953965b93911092838de62f0cfccf2a5e1a9b0787f1",
    ("C2", "csv"): "79be02ac17321f4d6b6293898a31b2aaa9e577da55a87e1e4f348f293eabd0df",
    ("C2L1", "csv"): "96134465bea7ac71e5b43cdda888cd6766611597546986796edfdf3433e4f5db",
    ("D3t", "csv"): "e5a40c2b736398aef2853bb3161f81fd2c66cb4b54cc5c431c4d02cc1baa8ff1",
    ("A42", "csv"): "b01bc8e7ec9ce2011a0715461d029b253ff69b0762f550e39b89a89c0e5931da",
    ("G21", "csv"): "3ee415ffb99a989a7cdecd20a232c377cf1ca1f722930dd3732d49e0f88208c6",
    ("D43", "csv"): "43e378c3af330273d69cff937d31f5630ad9965e44357fd2ba69a21e1767eb8e",
    ("A3", "csv"): "4764bd6e6c0c9d53c1b6472fcfab830f0fa07adde1d0e5a794b9925c709a2e2d",
    ("HYP:C1_1", "csv"): "28154b45286db349bfa511176ecae7c73a466b2a6069a11cd9b744ee2c8629db",
    ("HYP:B4_1", "csv"): "5832cff310e0223ca2bfd550789cdf621c225a943372f21b40f09cd7cde16d02",
    ("A2", "json"): "39f690032ffd6cb0ba6457f1d86a5f64e96677a42c5507ccf2635e54c25f94cd",
    ("A3", "json"): "48fb2d1711199f0f38fcca9dc513828ce67c24bdd298ea5915794dbaec44560b",
    ("HYP:B4_1", "json"): "0fb90c7a6e87157aebbe9638d68fa2dd5abce3366b5a9ba2d0f069c18132658c",
}


# type -> SHA-256 of the concatenated stdout of `corelat atomic-length --type
# <type> --weight <w> --coords=<point> --format <fmt>` over w = L0, L1, then
# three points of lattice M (its first basis vector, the sum of its basis
# vectors and that sum's negation, each coordinate as str(Fraction(x))),
# then fmt = csv, json, in that nesting; for every type of
# dynkin.all_type_ids(4) plus E6_1, E7_1 and E8_1
ATOMIC_LENGTH_SHA256 = {
    "A1_1": "d112d8dc4eab85180f36981517ffe161ec29b04ec408dc161bb7bd8fa695740a",
    "A2_1": "7234c34b603891cc98fd6d11ffeae587f3d9e6ed45d38e754dd2ad11659f4069",
    "A3_1": "edb65b28a4ec6604830c96b81271e8b9763fef3bc13c698466bd2ff47a0822dc",
    "A4_1": "3e62851de32f3785f09a5798ae48c04a8a739e16cf15109a875b3e17b3fc1a5b",
    "B3_1": "4480c5f4d5c5885b982b48d39407e82b69920dfba865732bf1922f11388f5788",
    "B4_1": "d938bb1fe73c0680684b2ba0fb7a88a482a5b2d3e1ff0bd9be45e94a66f81356",
    "C2_1": "9211cbbabbb30b3be2066b14fce827be105be9cb1234d842515cbb4c6cf4888c",
    "C3_1": "aab83590a77d87c11cd44fe99187dc4a0e5fc987846256a60eb84eaafca3105a",
    "C4_1": "919c95b896d6232adf5214ae20e5ad86c90c49318f0a89ef4b633b2288363071",
    "D4_1": "52c083ad0053a77c2aca2771e2ae309c6c4bfe87a4a7c2eb0f1320a1efaf4ca9",
    "F4_1": "e9b3bdf9a63e23f312a368e1a2e51810d30a4cc7d183d629b6ec69349e914a7f",
    "G2_1": "30f927960c1833780a77acd1c4dcc764f0119a4f7f897f1ff3d28d7ba0a56eeb",
    "A2_2": "9a4bbf667a4e076923c2ede145149a971c02f7ab9dc312e548eeeb654421da3b",
    "A4_2": "61263c492aafe72a22e0c9001f1b86ddafd644650e2fad9e05b0da4928ecea43",
    "A6_2": "205d26dd95d88ec501d5c1963089c4767c6fe3e29332949af974b8b17540d644",
    "A8_2": "14c51fea20d961c72a1147e677e0519e3023c7d2746661166d85b0c61194b798",
    "A5_2": "94e9258b555d051fabedde7110df2b7cf112f6c35fe13b38d129d32fbc3cd41b",
    "A7_2": "90abc090072dc9aaefb38c3ff0cff1d444eda5cde27d538d6dcf64b4c7fe2e37",
    "D3_2": "60a6d5bec49319c998b1eb9e77967ba2891f3014d03c50442f159e198cacd145",
    "D4_2": "6ee15ee0896cc859f0b4ed83b0fd442c00f21b0d299e4df09debb900cc653090",
    "D5_2": "5449a84908420965a14bd061ad70f69bfd56c0147f990e55c4821dfcf5c6b0b8",
    "E6_2": "2070bcffe0b1e32da8db49c48f5e7e04073cd4ef571aa3e62facee96d6783fe7",
    "D4_3": "6e883c8210458657566739555eea1a39ced79797068bce48aa0f2b744af6fff1",
    "E6_1": "c89b7493220e8b4fb289a3b846a3d5de739757faf487d6ba2b6047902e8f3559",
    "E7_1": "59d52a05590f8627c60b0a20c7efaa12176aabb364cb14f71ea023e1c7c65c27",
    "E8_1": "4d4e6558b3b5d8b0bd5b48a2254ef95da853a579511dad980799cba7e6d2f92d",
}


# figure -> SHA-256 of the stdout of `corelat table --figure <figure>
# --format json` over the figure's default range of N
TABLE_JSON_SHA256 = {
    "8N+1": "214be8a941d5497e9e7d507dcaf440e13282297173b4a450aa438c802a3fb83a",
    "40N+10": "174c9219e25f9f5cb8452acf05535620378d297ebce6ea12493ba069ba936316",
    "6N+7": "77415902e1cdedbe08d8c7947b1cb927e3aa3f488c054a1f5b68b62f31ca4612",
    "12N+7": "564bf6ccf6301ebe9906439f1bbef70b67a37c8f1edbfb1458bb9fa4f9682e67",
}


# argv -> raw stdout of the sweeps test_cli.test_undecidable_level_is_a_fail_report
# runs on a case changed so that no level can be decided: every level a FAIL
# report whose witness carries the solver's error
FAIL_SWEEPS = {
    ("verify", "--case", "A2ext", "--N", "1", "--format", "csv"): (
        'case,N,status,solutions,orbits,phi_images,witness\n'
        'A2ext,1,FAIL,,,,"{""reason"":""level not decided"",""error"":""NonIntegralImage: '
        '(3,2) is outside the parity domain""}"\n'),
    ("verify", "--case", "A2ext", "--N", "1", "--format", "json"): (
        '[{"case":"A2ext","N":1,"status":"FAIL","counts":{},"witness":{"reason":'
        '"level not decided","error":"NonIntegralImage: (3,2) is outside the parity domain"}}]\n'),
    ("verify", "--case", "A2", "--max-N", "1", "--format", "csv"): (
        'case,N,status,solutions,orbits,phi_images,witness\n'
        'A2,0,FAIL,,,,"{""reason"":""level not decided"",""error"":""NotClosed: '
        'the form (1, 2) is not invariant under C6""}"\n'
        'A2,1,FAIL,,,,"{""reason"":""level not decided"",""error"":""NotClosed: '
        'the form (1, 2) is not invariant under C6""}"\n'),
    ("verify", "--case", "A2", "--max-N", "1", "--format", "json"): (
        '[{"case":"A2","N":0,"status":"FAIL","counts":{},"witness":{"reason":'
        '"level not decided","error":"NotClosed: the form (1, 2) is not invariant under C6"}},'
        '{"case":"A2","N":1,"status":"FAIL","counts":{},"witness":{"reason":'
        '"level not decided","error":"NotClosed: the form (1, 2) is not invariant under C6"}}]\n'),
    ("conjecture-a3", "--max-N", "0", "--format", "csv"): (
        'case,N,status,solutions,orbits,phi_images,witness\n'
        'A3conj,0,FAIL,,,,"{""reason"":""level not decided"",""error"":""NonIntegralImage: '
        '(2,0,-3) is outside the parity domain""}"\n'),
    ("conjecture-a3", "--max-N", "0", "--format", "json"): (
        '[{"case":"A3conj","N":0,"status":"FAIL","counts":{},"witness":{"reason":'
        '"level not decided","error":"NonIntegralImage: (2,0,-3) is outside the parity domain"}}]\n'),
}
