def kernel(c_pp, c_pm, c_mp, c_mm, enclosed, final=False, posts=(True, True, True, True)):
    a1_0 = 0j + c_pp * f0 * f1
    a1_0 = a1_0 if abs(a1_0) >= PRUNE_EPS else 0j
    a1_1 = 0j + c_pm * f0 * f1
    a1_1 = a1_1 if abs(a1_1) >= PRUNE_EPS else 0j
    a1_2 = 0j + c_pp * f0
    a1_2 = a1_2 if abs(a1_2) >= PRUNE_EPS else 0j
    a1_3 = 0j + c_mp * f0
    a1_3 = a1_3 if abs(a1_3) >= PRUNE_EPS else 0j
    a1_4 = 0j + c_mp * f0 * f1
    a1_4 = a1_4 if abs(a1_4) >= PRUNE_EPS else 0j
    a1_5 = 0j + c_mm * f0 * f1
    a1_5 = a1_5 if abs(a1_5) >= PRUNE_EPS else 0j
    a1_6 = 0j + c_pm * f0
    a1_6 = a1_6 if abs(a1_6) >= PRUNE_EPS else 0j
    a1_7 = 0j + c_mm * f0
    a1_7 = a1_7 if abs(a1_7) >= PRUNE_EPS else 0j
    a2_0 = 0j + a1_0 * f0 * f1 + a1_2 * f0
    a2_0 = a2_0 if abs(a2_0) >= PRUNE_EPS else 0j
    a2_1 = 0j + a1_1 * f0 * f1
    a2_1 = a2_1 if abs(a2_1) >= PRUNE_EPS else 0j
    a2_2 = 0j + a1_3 * f0
    a2_2 = a2_2 if abs(a2_2) >= PRUNE_EPS else 0j
    a2_3 = 0j + a1_0 * f0 + a1_2 * f0 * f1
    a2_3 = a2_3 if abs(a2_3) >= PRUNE_EPS else 0j
    a2_4 = 0j + a1_1 * f0
    a2_4 = a2_4 if abs(a2_4) >= PRUNE_EPS else 0j
    a2_5 = 0j + a1_3 * f0 * f1
    a2_5 = a2_5 if abs(a2_5) >= PRUNE_EPS else 0j
    if final:
        return [a2_0, a2_1, a2_2, a2_3, a2_4, a2_5, a1_4, a1_5, a1_6, a1_7]
    m0 = (a1_4.real * a1_4.real + a1_4.imag * a1_4.imag) + (a1_5.real * a1_5.real + a1_5.imag * a1_5.imag)
    if m0 <= 0.0:
        m0, s0 = 0.0, None
    elif not posts[0]:
        s0 = None
    else:
        inv = m0 ** -0.5
        s0 = _new(SingleIonState, ((a1_4) * inv, (a1_5) * inv))
    m1 = (a1_6.real * a1_6.real + a1_6.imag * a1_6.imag) + (a1_7.real * a1_7.real + a1_7.imag * a1_7.imag)
    if m1 <= 0.0:
        m1, s1 = 0.0, None
    elif not posts[1]:
        s1 = None
    else:
        inv = m1 ** -0.5
        s1 = _new(SingleIonState, ((a1_6) * inv, (a1_7) * inv))
    m2 = (a2_0.real * a2_0.real + a2_0.imag * a2_0.imag) + (a2_1.real * a2_1.real + a2_1.imag * a2_1.imag) + (a2_2.real * a2_2.real + a2_2.imag * a2_2.imag)
    if m2 <= 0.0:
        m2, s2 = 0.0, None
    elif not posts[2]:
        s2 = None
    else:
        inv = m2 ** -0.5
        s2 = _post_state((a2_0) * inv, (a2_1) * inv, (a2_2) * inv, 0j)
    m3 = (a2_3.real * a2_3.real + a2_3.imag * a2_3.imag) + (a2_4.real * a2_4.real + a2_4.imag * a2_4.imag) + (a2_5.real * a2_5.real + a2_5.imag * a2_5.imag)
    if m3 <= 0.0:
        m3, s3 = 0.0, None
    elif not posts[3]:
        s3 = None
    else:
        inv = m3 ** -0.5
        s3 = _post_state((a2_3) * inv, (a2_4) * inv, (a2_5) * inv, 0j)
    if enclosed:
        return _new(PassResult, (m0, m1, m2, 0.0, m3, s2, s3, s3, s0, s1))
    return _new(PassResult, (m0, m1, m2, m3, 0.0, s2, s3, s3, s0, s1))
