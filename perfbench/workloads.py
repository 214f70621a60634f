"""Workload table: the run configuration each workload hands to the CLI.

``config`` is written as the ``--config`` file of every stage; the seed is
passed separately as ``--seed``.  Each round runs detect ``detect_passes``
times in all, so that ``detect_fps`` rests on several samples spread over
the round where one pass lasts only about 5 s.
"""

WORKLOADS = {
    # The default `irgaze synth` dataset: 6 poses x 25 points + 48 training
    # frames at 640x480.
    "nominal_640": {
        "config": {},
        "detect_passes": 3,
    },
    # The same plan at 1280x1024 with two poses (66 frames): full-frame
    # passes grow 4.3x, eye regions keep their size.
    "hires_1280": {
        "config": {"synth": {"width": 1280, "height": 1024, "poses": 2}},
        "detect_passes": 1,
    },
    # 640x480, 3 poses x 25 points + 14 training repeats per pose and corner:
    # 42 vectors per corner, so closest-vector scans are 3.5x longer.
    "dense_calib_640": {
        "config": {"synth": {"poses": 3, "training_repeats": 14}},
        "detect_passes": 1,
    },
}
