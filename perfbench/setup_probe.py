"""Time what a fresh process pays before its first answer.

Run as ``python3 setup_probe.py <src-dir>``.  Prints one JSON object with
the seconds spent importing the package, enumerating the 1- and 2-qubit
stabilizer dictionaries and their Choi atoms, building the qutrit
phase-point frame, and answering one query of each kind (which fills the
LP modules' lazy atom caches).
"""

import json
import sys
from time import perf_counter


def main(src: str) -> dict:
    sys.path.insert(0, src)
    t0 = perf_counter()
    import magicswitch as ms

    t1 = perf_counter()
    qubit = ms.enumerate_stabilizer_states(1)
    atoms = ms.cspo_choi_atoms(ms.enumerate_stabilizer_states(2))
    t2 = perf_counter()
    frame = ms.build_frame(3)
    t3 = perf_counter()
    ms.rom_state(ms.DensityOperator.maximally_mixed(2), qubit)
    ms.channel_robustness(ms.noisy_th_channel(0.5), atoms)
    ms.mana_state(ms.DensityOperator.maximally_mixed(3), frame)
    t4 = perf_counter()
    return {
        "import_s": t1 - t0,
        "stabilizers_s": t2 - t1,
        "frame_s": t3 - t2,
        "first_solve_s": t4 - t3,
        "module": ms.__file__,
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
