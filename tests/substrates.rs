//! Integration tests across the substrates: control design on the paper's
//! plant.

use cps_control::place;
use cps_linalg::{eigen, Matrix};

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
