// Host speed calibration.
//
// The benchmark runs on a shared host whose speed drifts by tens of
// percent over minutes. A fixed kernel, compiled into the benchmark and
// independent of src/, is timed between repetitions; the workload times are
// then reported at a reference speed, so a slower host does not read as a
// slower simulator. Changes to src/ never change the kernel, so they move
// the scaled times in full.
#pragma once

namespace perfbench {

// CPU seconds the calibration kernel takes at the reference speed.
inline constexpr double kReferenceCalibrationS = 0.0130;

// The workloads' times do not move in proportion to the kernel's as the
// host's speed changes: over runs whose kernel time ranged from 8 to 16 ms,
// they went as the 0.8th to 1.35th power of it, mostly above the 1st
// (README.md, "Host time"). Times are scaled with a power in between.
inline constexpr double kCalibrationExponent = 1.2;

// Times the calibration kernel several times and returns its CPU seconds:
// the geometric mean of the median time of an arithmetic loop and of a
// string/map mix like the simulator's telemetry path (the pair tracked the
// workloads' drift best of the kernels tried).
double calibration_s();

// Factor that brings a time measured while the kernel took `calibration`
// seconds to the reference speed.
double reference_scale(double calibration);

}  // namespace perfbench
