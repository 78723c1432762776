use gateway::Gateway;

#[test]
fn a_request_without_backend_is_dropped() {
    let mut g = Gateway::default();
    assert_eq!(g.forward(None), None);
    assert_eq!(g.dropped, 1);
}
