//! Integration tests across the substrates: control design and the two
//! verification engines.

use cps_control::place;
use cps_linalg::{eigen, Matrix};
use cps_ta::model::{blocking_bound_is_safe, BlockingModelParams};

#[test]
fn pole_placement_designs_a_gain_for_the_paper_plant() {
    // Design an alternative TT gain for the motivational plant and check the
    // closed loop realizes the requested poles.
    let plant = cps_apps::motivational::dc_motor_plant().unwrap();
    let poles = [0.1, 0.2, 0.3];
    let gain = place::place_real_poles(plant.state_matrix(), plant.input_matrix(), &poles).unwrap();
    let k_row = Matrix::row_from_vector(&gain);
    let closed = plant
        .state_matrix()
        .sub(&plant.input_matrix().mul(&k_row).unwrap())
        .unwrap();
    let eig = eigen::eigenvalues(&closed).unwrap();
    for target in poles {
        assert!(eig
            .values()
            .iter()
            .any(|z| (z.re - target).abs() < 1e-6 && z.im.abs() < 1e-6));
    }
}

#[test]
fn zone_based_and_arithmetic_blocking_checks_agree() {
    // The conservative TA model (cps-ta) must agree with plain arithmetic on
    // the blocking-vs-deadline question for the case-study deadlines.
    for (deadline, blocking) in [(11, 9), (12, 10), (12, 19), (15, 10), (13, 30)] {
        let params = BlockingModelParams {
            deadline,
            dwell: 5,
            min_inter_arrival: 25,
            blocking,
        };
        assert_eq!(
            blocking_bound_is_safe(params).unwrap(),
            blocking <= deadline,
            "deadline {deadline}, blocking {blocking}"
        );
    }
}
